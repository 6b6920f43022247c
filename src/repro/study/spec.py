"""Declarative run specifications: a study as plain, serializable data.

A :class:`StudySpec` captures everything needed to run one optimization
study -- problem, optimizer, budget, batch size, seeds, execution backend and
transfer-source configuration -- as a dataclass constructible from a plain
dict or JSON file, so runs can be versioned, shipped to workers, replayed
from checkpoints and launched from the ``python -m repro`` command line.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any

from repro.engine.backends import available_backends
from repro.errors import OptimizationError
from repro.utils.validation import suggestion_hint


class SpecError(ValueError):
    """Raised for malformed or inconsistent study specifications."""


def _unknown_key_error(kind: str, key: str, known) -> SpecError:
    return SpecError(f"unknown {kind} field {key!r}{suggestion_hint(key, known)}; "
                     f"known fields: {sorted(known)}")


@dataclass(frozen=True)
class TransferSpec:
    """Declarative transfer-source configuration.

    Describes the source circuit whose random simulations train the frozen
    :class:`~repro.core.SourceModel` consumed by ``kato_tl`` (or, with
    ``fom=true``, the raw ``(x, fom)`` observations consumed by ``tlmbo``).
    """

    circuit: str
    technology: str = "180nm"
    n_samples: int = 100
    seed: int | None = None          #: defaults to the study seed
    train_iters: int = 60
    fom: bool = False                #: scalar-FOM outputs (TLMBO-style source)

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise SpecError(f"transfer.n_samples must be >= 1, got {self.n_samples}")
        if self.train_iters < 0:
            raise SpecError(f"transfer.train_iters must be >= 0, got {self.train_iters}")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TransferSpec":
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise _unknown_key_error("transfer spec", key, known)
        return cls(**data)


@dataclass(frozen=True)
class StudySpec:
    """One declarative optimization study.

    Every field is plain data (:meth:`to_dict` / :meth:`from_dict` round-trip
    through JSON), and the spec is frozen so a running study cannot drift
    from the configuration recorded in its checkpoint header.
    """

    optimizer: str                               #: registry name or alias
    circuit: str                                 #: circuits-registry name
    technology: str = "180nm"
    n_simulations: int = 60                      #: total simulation budget
    n_init: int = 10                             #: random initial designs
    batch_size: int | None = None                #: None keeps optimizer default
    seed: int = 0
    n_seeds: int = 1                             #: independent repetitions
    backend: str | None = None                   #: evaluation backend (None = serial)
    max_workers: int | None = None
    cache: bool = True                           #: design-level result cache
    quick: bool = True                           #: reduced surrogate budgets
    fom: bool = False                            #: wrap in the Eq.-2 FOM objective
    fom_normalization_samples: int = 100
    fom_normalization: dict[str, tuple[float, float]] | None = None
    transfer: TransferSpec | None = None
    optimizer_options: dict[str, Any] = field(default_factory=dict)
    problem_options: dict[str, Any] = field(default_factory=dict)
    tag: str = ""                                #: free-form label for reports
    #: Path of a SQLite results store (see :mod:`repro.service`).  When set,
    #: ``python -m repro run`` checkpoints the study into the store instead
    #: of a JSONL file (an explicit ``--db`` / ``--checkpoint`` flag wins).
    results_db: str | None = None

    # ------------------------------------------------------------------ #
    # validation                                                          #
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if not self.optimizer:
            raise SpecError("spec needs an optimizer name")
        if not self.circuit:
            raise SpecError("spec needs a circuit name")
        if self.n_simulations < 1:
            raise SpecError(f"n_simulations must be >= 1, got {self.n_simulations}")
        if self.n_init < 0:
            raise SpecError(f"n_init must be >= 0, got {self.n_init}")
        if self.batch_size is not None and self.batch_size < 1:
            raise SpecError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_seeds < 1:
            raise SpecError(f"n_seeds must be >= 1, got {self.n_seeds}")
        if self.backend is not None and self.backend not in available_backends():
            raise SpecError(f"unknown backend {self.backend!r}; "
                            f"available: {available_backends()}")

    def validate(self) -> "StudySpec":
        """Resolve names against both registries, failing fast with hints."""
        from repro.circuits import available_problems
        from repro.study.registry import resolve_optimizer
        resolve_optimizer(self.optimizer)
        if self.circuit.lower() not in available_problems():
            raise _unknown_key_error("circuit", self.circuit.lower(),
                                     available_problems())
        if self.transfer is not None:
            if self.transfer.circuit.lower() not in available_problems():
                raise _unknown_key_error("transfer circuit",
                                         self.transfer.circuit.lower(),
                                         available_problems())
        return self

    # ------------------------------------------------------------------ #
    # serialization                                                       #
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StudySpec":
        """Build a spec from a plain dict (e.g. parsed JSON), with hints."""
        data = dict(data)
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise _unknown_key_error("study spec", key, known)
        transfer = data.get("transfer")
        if isinstance(transfer, dict):
            data["transfer"] = TransferSpec.from_dict(transfer)
        for key in ("optimizer_options", "problem_options"):
            if key not in data:
                continue
            options = data[key]
            if options is None:
                data[key] = {}       # explicit JSON null = "no options"
            elif not isinstance(options, dict):
                raise SpecError(f"{key} must be a mapping, "
                                f"got {type(options).__name__}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "StudySpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "StudySpec":
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise SpecError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise SpecError(f"{path} must contain a JSON object, "
                            f"got {type(data).__name__}")
        return cls.from_dict(data)

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-serializable dict (inverse of :meth:`from_dict`)."""
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    # ------------------------------------------------------------------ #
    # seeds                                                               #
    # ------------------------------------------------------------------ #
    def spawn_seeds(self) -> list[int]:
        """Per-repetition integer seeds (stable function of ``seed``).

        Integer child seeds (rather than generator objects) keep every
        repetition individually serializable, so any one seed of a
        multi-seed study can be re-run or resumed on its own.
        """
        if self.n_seeds == 1:
            return [int(self.seed)]
        from repro.utils.random import spawn_seed_ints
        return spawn_seed_ints(self.seed, self.n_seeds)

    def for_seed(self, seed: int) -> "StudySpec":
        """A single-repetition copy of this spec pinned to one seed.

        An unset ``transfer.seed`` is pinned to the *current* (parent) seed
        before the repetition seed replaces it, so every child repetition --
        and any resume of its checkpoint, on any runner backend -- rebuilds
        the identical transfer source.
        """
        transfer = self.transfer
        if transfer is not None and transfer.seed is None:
            transfer = replace(transfer, seed=int(self.seed))
        return replace(self, seed=int(seed), n_seeds=1, transfer=transfer)

    # ------------------------------------------------------------------ #
    # backend resolution                                                  #
    # ------------------------------------------------------------------ #
    def resolved_backend(self) -> str:
        """The evaluation backend this study will use (serial when unset)."""
        return self.backend or "serial"

    # ------------------------------------------------------------------ #
    # builders                                                            #
    # ------------------------------------------------------------------ #
    def build_problem(self):
        """Instantiate the (possibly FOM-wrapped) problem with its engine.

        ``problem_options`` is forwarded to the problem constructor -- e.g.
        ``{"corners": [...], "backend": "batched"}`` for a ``*_corners``
        problem, or ``{"load_capacitance": 5e-12}`` for an op-amp -- and must
        stay JSON-plain so checkpointed specs rebuild the identical problem.
        """
        from repro.circuits import FOMProblem, make_problem
        from repro.engine import EvaluationEngine
        problem = make_problem(self.circuit, self.technology,
                               **self.problem_options)
        if self.fom:
            if self.fom_normalization is not None:
                problem = FOMProblem(problem, normalization={
                    name: tuple(bounds)
                    for name, bounds in self.fom_normalization.items()})
            else:
                # Deterministic in the study seed, so a resumed study
                # reconstructs identical normalisation ranges.
                problem = FOMProblem(
                    problem,
                    n_normalization_samples=self.fom_normalization_samples,
                    rng=self.seed)
        engine = EvaluationEngine(problem, backend=self.resolved_backend(),
                                  cache=bool(self.cache),
                                  max_workers=self.max_workers)
        problem.attach_engine(engine)
        return problem

    def build_source(self):
        """Build the transfer source (model, and raw data when applicable).

        Returns ``(source_model, source_data)`` where either may be ``None``:
        a plain transfer spec yields a trained :class:`SourceModel`; with
        ``transfer.fom=true`` the raw ``(x_unit, fom)`` observations for
        TLMBO are derived from the same model.
        """
        if self.transfer is None:
            return None, None
        from repro.study.sources import make_source_model
        transfer = self.transfer
        seed = self.seed if transfer.seed is None else transfer.seed
        source = make_source_model(transfer.circuit, transfer.technology,
                                   n_samples=transfer.n_samples, seed=seed,
                                   train_iters=transfer.train_iters,
                                   fom=transfer.fom)
        source_data = (source.x, source.y[:, 0]) if transfer.fom else None
        return source, source_data

    def build_optimizer(self, problem, rng, source=None, source_data=None):
        """Build the configured optimizer through the registry."""
        from repro.study.registry import build_optimizer
        try:
            return build_optimizer(self.optimizer, problem, rng,
                                   quick=self.quick, source=source,
                                   source_data=source_data,
                                   batch_size=self.batch_size,
                                   options=self.optimizer_options)
        except TypeError as exc:
            # Bad optimizer_options keys surface here; keep the spec field in
            # the message so CLI users know what to fix.
            raise OptimizationError(
                f"building optimizer {self.optimizer!r} failed: {exc}; check "
                "optimizer_options against the optimizer's constructor") from exc
