"""The declarative testbench: circuits + analyses + checks + measures.

A :class:`Testbench` is the simulation-side counterpart of
:class:`repro.study.StudySpec`: instead of imperatively chaining
``dc_operating_point`` / ``ac_analysis`` / ``transient_analysis`` calls, a
circuit problem *declares*

* its circuit builders (one or more netlist variants of the same design),
* the named analyses to run over them (:mod:`repro.bench.analyses`),
* validity checks that mark a design dead (e.g. "the follower must track"),
* and the measurements that produce the metric dictionary
  (:mod:`repro.bench.measures`).

The :class:`~repro.bench.Simulator` executes the bench for one design and
returns a :class:`SimResult`; operating points are solved once per
``(circuit, temperature)`` and shared across every dependent analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.bench.analyses import AnalysisSpec
from repro.bench.measures import Measure, MeasureContext


@dataclass(frozen=True)
class Check:
    """A validity predicate evaluated after the analyses, before the measures.

    ``fn`` receives the :class:`~repro.bench.measures.MeasureContext` and
    returns truthy when the design is alive; a falsy return marks the whole
    simulation failed with ``description`` as the reason.
    """

    description: str
    fn: Callable[[MeasureContext], bool] = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if self.fn is None:
            raise ValueError(f"check {self.description!r} needs a callable")


@dataclass
class SimResult:
    """One executed testbench: metrics, raw analysis results and statistics.

    Attributes
    ----------
    ok:
        Whether every analysis converged, every check passed and every
        finite-gated measure produced a finite value.  When false,
        ``metrics`` is empty and ``failure`` names the first reason.
    metrics:
        Metric name -> value, in the bench's measure order.
    analyses:
        Analysis name -> raw result (:class:`~repro.spice.OperatingPoint`,
        :class:`~repro.spice.ACResult`, :class:`~repro.spice.TransientResult`
        or :class:`~repro.bench.analyses.SweepResult`).
    stats:
        Session counters: ``n_op_solves`` (Newton operating-point solves,
        sweep points included), ``n_op_reused`` (analyses served by a
        memoised operating point) and ``n_circuits_built``.
    """

    ok: bool
    metrics: dict[str, float] = field(default_factory=dict)
    analyses: dict[str, object] = field(default_factory=dict)
    failure: str | None = None
    stats: dict[str, int] = field(default_factory=dict)

    def __getitem__(self, analysis: str):
        return self.analyses[analysis]


class Testbench:
    """A named, declarative simulation setup for one circuit design space.

    Parameters
    ----------
    name:
        Bench identifier (used in failure messages).
    builders:
        Mapping circuit key -> ``(design: dict) -> Circuit``, or a single
        callable registered under the key ``"main"``.  Builders must be pure
        (a fresh netlist per call) and picklable -- bound methods of a
        picklable problem qualify.
    analyses:
        :class:`~repro.bench.analyses.AnalysisSpec` instances, executed in
        order; names must be unique.
    measures:
        :class:`~repro.bench.measures.Measure` instances producing the metric
        dictionary, in order; names must be unique.
    checks:
        :class:`Check` predicates evaluated between analyses and measures.
    temperature:
        Default analysis temperature (Celsius) for specs that do not pin
        their own.
    """

    #: The class name starts with "Test"; tell pytest it is not a test case.
    __test__ = False

    def __init__(self, name: str,
                 builders: dict[str, Callable] | Callable,
                 analyses: list[AnalysisSpec],
                 measures: list[Measure],
                 checks: list[Check] | tuple = (),
                 temperature: float = 27.0):
        self.name = name
        if callable(builders):
            builders = {"main": builders}
        self.builders = dict(builders)
        self.analyses = list(analyses)
        self.measures = list(measures)
        self.checks = list(checks)
        self.temperature = float(temperature)
        self._validate()

    def _validate(self) -> None:
        from repro.bench.analyses import OPSpec
        if not self.builders:
            raise ValueError(f"testbench {self.name!r} needs a circuit builder")
        seen: set[str] = set()
        op_specs: dict[str, OPSpec] = {}
        for spec in self.analyses:
            if spec.name in seen:
                raise ValueError(f"testbench {self.name!r} has duplicate "
                                 f"analysis name {spec.name!r}")
            seen.add(spec.name)
            if spec.circuit not in self.builders:
                raise ValueError(
                    f"analysis {spec.name!r} references unknown circuit "
                    f"{spec.circuit!r}; builders: {sorted(self.builders)}")
            if isinstance(spec, OPSpec):
                op_specs[spec.name] = spec
            referenced = getattr(spec, "op", None)
            if referenced is not None:
                if referenced not in op_specs:
                    raise ValueError(
                        f"analysis {spec.name!r} references operating point "
                        f"{referenced!r}, which is not an earlier OP analysis")
                # An analysis linearises around its referenced bias, so a
                # pinned temperature that disagrees with the OP's would be
                # silently ignored -- reject the contradiction outright.
                ref_temp = op_specs[referenced].resolved_temperature(
                    self.temperature)
                spec_temp = spec.resolved_temperature(self.temperature)
                if spec_temp != ref_temp:
                    raise ValueError(
                        f"analysis {spec.name!r} pins temperature "
                        f"{spec_temp:g}C but references operating point "
                        f"{referenced!r} solved at {ref_temp:g}C; pin the "
                        "temperature on the OP analysis (or drop op= to "
                        "solve a bias at this analysis' own temperature)")
        metric_names = set()
        for measure in self.measures:
            if measure.name in metric_names:
                raise ValueError(f"testbench {self.name!r} has duplicate "
                                 f"measure name {measure.name!r}")
            metric_names.add(measure.name)

    @property
    def metric_names(self) -> list[str]:
        return [measure.name for measure in self.measures]

    def run(self, design: dict[str, float]) -> SimResult:
        """Convenience one-shot execution through a fresh Simulator session."""
        from repro.bench.simulator import Simulator
        return Simulator().run(self, design)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Testbench({self.name!r}, circuits={sorted(self.builders)}, "
                f"analyses={[a.name for a in self.analyses]}, "
                f"measures={self.metric_names})")
