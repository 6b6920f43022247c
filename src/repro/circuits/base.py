"""Shared infrastructure for the circuit sizing problems."""

from __future__ import annotations

import copy
import hashlib

import numpy as np

from repro.bo.design_space import DesignSpace
from repro.bo.problem import Constraint, OptimizationProblem
from repro.pdk import Technology, apply_variation, get_technology
from repro.pdk.variation import VariationSample
from repro.spice.ac import logspace_frequencies


class VariationBuilder:
    """A circuit builder wrapped with a local-mismatch post-pass.

    Calls the underlying builder, then perturbs the built netlist's MOSFETs
    according to the technology card's
    :attr:`~repro.pdk.Technology.variation` sample (see
    :func:`repro.pdk.apply_variation`).  Picklable whenever the wrapped
    builder is (bound methods of picklable problems qualify), so varied
    benches ship to process workers like nominal ones.
    """

    def __init__(self, builder, technology: Technology):
        self.builder = builder
        self.technology = technology

    def __call__(self, design: dict[str, float], **kwargs):
        circuit = self.builder(design, **kwargs)
        apply_variation(circuit, self.technology)
        return circuit


class CircuitSizingProblem(OptimizationProblem):
    """Base class for testbench-backed sizing problems.

    Subclasses declare their simulation setup in :meth:`testbench` -- circuit
    builders, analyses, checks and measures (see :mod:`repro.bench`) -- and
    :meth:`simulate` executes it through a
    :class:`~repro.bench.Simulator` session with operating-point reuse.
    This class handles the technology card, the analysis temperature, the
    analysis frequency grid and the "failed simulation" metric values (a
    design whose DC analysis does not converge, or whose amplifier is
    effectively dead, must still return a full metric dictionary -- with
    values that violate the constraints -- see
    :meth:`repro.bo.problem.OptimizationProblem.failed_metrics` -- so the
    optimizers can learn from it).

    :meth:`simulate` is **pure and picklable**: it builds fresh netlists per
    call and touches no shared state, which is what lets the evaluation
    engine dispatch designs to worker processes (see
    :func:`repro.engine.simulate_job`).

    ``temperature`` is the default analysis temperature (Celsius) for every
    analysis that does not pin its own -- PVT corner variants retarget a
    whole problem to a corner temperature through it.
    """

    #: Testbench problems build one bench per design, which is exactly what
    #: :meth:`repro.engine.BatchedBackend.simulate` stacks into vectorised
    #: solves.
    supports_batch_simulation = True

    def __init__(self, name: str, technology: str | Technology,
                 design_space: DesignSpace, objective: str, minimize: bool,
                 constraints: list[Constraint], temperature: float = 27.0):
        if isinstance(technology, str):
            technology = get_technology(technology)
        self.technology = technology
        self.sim_temperature = float(temperature)
        super().__init__(name=f"{name}_{technology.name}", design_space=design_space,
                         objective=objective, minimize=minimize, constraints=constraints)

    @property
    def cache_token(self) -> str:
        """Name plus a digest of scalar config and the technology card.

        Constructor options that change the testbench without changing the
        name -- e.g. ``load_capacitance`` or the analysis temperature -- must
        be part of the design-cache identity, or a shared cache could serve
        one configuration's metrics to another.  Hashing every scalar
        attribute covers present and future options without per-subclass
        bookkeeping; the technology fingerprint distinguishes same-named
        nodes with different silicon (PVT corner cards).
        """
        scalars = sorted((key, value) for key, value in self.__dict__.items()
                         if isinstance(value, (bool, int, float, str)))
        digest = hashlib.sha1(
            repr((scalars, self.technology.fingerprint)).encode()
        ).hexdigest()[:16]
        return f"{self.name}:{digest}"

    # ------------------------------------------------------------------ #
    # declarative testbench                                               #
    # ------------------------------------------------------------------ #
    def testbench(self):
        """Build this problem's declarative :class:`repro.bench.Testbench`.

        Subclasses construct the bench from their circuit builders and the
        measure/analysis vocabulary in :mod:`repro.bench`.  Called for every
        simulation (see :attr:`bench`), so it must be cheap and side-effect
        free: pure data assembly over ``self``'s configuration, with builders
        that are pure functions of the design point.
        """
        raise NotImplementedError

    def mc_testbench(self):
        """The bench used when a local-mismatch sample is applied.

        Defaults to :meth:`testbench`.  Circuits whose regular bench is
        *offset-intolerant* override this: an op-amp characterised open loop
        rails (or loses its bias entirely) under the millivolts of input
        offset that realistic Pelgrom mismatch produces, so its Monte Carlo
        bench must solve the DC bias in feedback -- the standard mismatch
        sign-off recipe -- while measuring the same metric names the
        constraints reference.  Closed-loop circuits (the bandgap, the
        follower settling bench) absorb offsets by construction and keep
        the default.
        """
        return self.testbench()

    @property
    def bench(self):
        """A freshly built testbench reflecting the *current* configuration.

        Deliberately not cached: the bench bakes in scalar configuration
        (temperature, frequency grids, transient windows) at construction,
        and a cached copy would go stale if an attribute is mutated after
        the first simulation -- while :attr:`cache_token` follows the new
        configuration, silently caching old-configuration metrics under the
        new identity.  Construction is dataclasses and closures, noise next
        to one Newton solve.

        When the technology card carries a local-mismatch sample (see
        :meth:`with_variation`), the bench comes from :meth:`mc_testbench`
        instead and every builder is wrapped so the built netlists are
        perturbed per device before simulation; the bench's declared
        analyses and measures are untouched.
        """
        if getattr(self.technology, "variation", None) is None:
            return self.testbench()
        bench = self.mc_testbench()
        bench.builders = {
            key: VariationBuilder(builder, self.technology)
            for key, builder in bench.builders.items()}
        return bench

    # ------------------------------------------------------------------ #
    # local mismatch                                                      #
    # ------------------------------------------------------------------ #
    def with_variation(self, sample: VariationSample) -> "CircuitSizingProblem":
        """A shallow derived problem carrying one mismatch sample.

        The clone shares every configuration attribute with this problem but
        holds ``technology.with_variation(sample)``; its simulations perturb
        each matched MOSFET by the sample's z-scores (scaled by the Pelgrom
        sigma of the device's sized geometry), and its
        :attr:`cache_token` differs through the derived card's fingerprint,
        so per-sample results never collide in a shared design cache.  The
        attached engine is dropped -- sample evaluation is orchestrated by
        :class:`repro.mc.MonteCarloRunner`, not per-clone engines.
        """
        clone = copy.copy(self)
        clone.technology = self.technology.with_variation(sample)
        clone._engine = None
        return clone

    def mismatch_device_names(self) -> tuple[str, ...]:
        """The matched devices: every MOSFET of the *mismatch* netlists.

        Builds each :meth:`mc_testbench` circuit once at the design-space
        midpoint (the device *set* is topology, independent of sizing) and
        returns the sorted union of MOSFET names across builders, so shared
        amplifier cores appearing in several netlist variants draw one
        consistent mismatch sample per device.  Enumerating the MC bench --
        not the nominal one -- matters: a device present only in the
        mismatch netlist (e.g. a bias servo) must still be sampled, or it
        would silently run at nominal in every Monte Carlo sample.
        """
        from repro.spice.devices.mosfet import Mosfet
        bench = self.mc_testbench()
        midpoint = self.design_space.from_unit(
            np.full((1, self.design_space.dim), 0.5))[0]
        design = self.design_space.as_dict(midpoint)
        names: set[str] = set()
        for builder in bench.builders.values():
            circuit = builder(design)
            names.update(device.name for device in circuit.devices
                         if isinstance(device, Mosfet))
        return tuple(sorted(names))

    def simulate(self, design: dict[str, float]) -> dict[str, float]:
        """Run the declarative testbench for one named design point."""
        return self.simulate_checked(design)[0]

    def simulate_checked(self, design: dict[str, float]
                         ) -> tuple[dict[str, float], bool]:
        """Like :meth:`simulate`, but with an explicit success flag.

        Returns ``(metrics, ok)`` where a failed simulation carries the
        pessimised :meth:`failed_metrics` and ``ok=False``.  Wrappers that
        must *branch* on failure (e.g. the yield problems skipping Monte
        Carlo for designs dead at nominal) use this instead of comparing
        the returned dictionary against the failure sentinel.
        """
        from repro.bench import Simulator
        result = Simulator().run(self.bench, design)
        if not result.ok:
            return self.failed_metrics(), False
        return result.metrics, True

    # ------------------------------------------------------------------ #
    # analysis helpers                                                    #
    # ------------------------------------------------------------------ #
    @property
    def ac_frequencies(self) -> np.ndarray:
        """Default AC grid: 10 mHz to 10 GHz, 10 points per decade.

        The grid starts well below the dominant pole of even very-high-gain
        designs so the measured low-frequency phase is a valid reference for
        the phase-margin computation.
        """
        return logspace_frequencies(1e-2, 1e10, points_per_decade=10)

    def describe(self) -> dict[str, object]:
        """Summary used by reports and the experiment index."""
        return {
            "name": self.name,
            "technology": self.technology.name,
            "n_design_variables": self.design_space.dim,
            "design_variables": self.design_space.names,
            "objective": self.objective,
            "minimize": self.minimize,
            "constraints": [
                f"{c.name} {'>=' if c.sense == 'ge' else '<='} {c.threshold}"
                for c in self.constraints
            ],
        }
