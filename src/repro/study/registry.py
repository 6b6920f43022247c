"""Decorator-based optimizer registry: one table for every optimizer name.

Mirrors :mod:`repro.circuits.registry` on the optimizer side.  Every
optimizer in :mod:`repro.bo`, :mod:`repro.baselines` and :mod:`repro.core`
registers itself with :func:`register_optimizer`, declaring

* its **canonical name** and **aliases** ("rs"/"random" for random search,
  "smac" for SMAC-RF, ...), so the CLI, the :class:`~repro.study.StudySpec`
  and :func:`build_optimizer` all resolve names from one table with one
  "did you mean" error path;
* its **capabilities** (constrained and/or unconstrained problems, whether a
  transfer source is required), so misconfigured studies fail with a clear
  message before any simulation is spent;
* a **builder** turning ``(problem, rng, context)`` into a configured
  optimizer instance.

This module is a leaf: it imports only the standard library, so optimizer
modules can import the decorator without cycles.  Resolution lazily imports
the built-in optimizer modules, so ``resolve_optimizer("kato")`` works even
when :mod:`repro.core` has not been imported yet.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable


class UnknownOptimizerError(ValueError):
    """Raised when a name matches no registered optimizer (with a hint)."""


@dataclass
class BuildContext:
    """Everything a registered builder may need beyond ``(problem, rng)``.

    Attributes
    ----------
    quick:
        Use reduced surrogate/search budgets (the test and smoke scale);
        ``False`` selects the paper-scale defaults.
    source:
        A :class:`repro.core.SourceModel` for transfer optimizers.
    source_data:
        ``(x_unit, y)`` arrays for optimizers (TLMBO) that consume raw
        source observations instead of a trained source model.
    batch_size:
        Designs per iteration; ``None`` keeps the optimizer's default.
    options:
        Free-form optimizer keyword overrides from
        :attr:`repro.study.StudySpec.optimizer_options`, passed to the
        optimizer constructor.
    """

    quick: bool = True
    source: object | None = None
    source_data: tuple | None = None
    batch_size: int | None = None
    options: dict = field(default_factory=dict)

    def constructor_kwargs(self, **defaults) -> dict:
        """Merge quick-scale defaults, the batch size and user overrides."""
        kwargs = dict(defaults)
        if self.batch_size is not None:
            kwargs["batch_size"] = int(self.batch_size)
        kwargs.update(self.options)
        return kwargs


@dataclass(frozen=True)
class OptimizerSpec:
    """One registry row: identity, capabilities and the builder."""

    name: str
    cls: type
    builder: Callable
    aliases: tuple[str, ...] = ()
    supports_constrained: bool = True
    supports_unconstrained: bool = True
    requires_source: bool = False
    requires_source_data: bool = False
    description: str = ""

    def build(self, problem, rng, context: BuildContext | None = None):
        """Construct a configured optimizer for ``problem``.

        Validates the capability matrix first so a bad pairing fails with an
        actionable message instead of deep inside the optimizer.
        """
        context = context or BuildContext()
        constrained = getattr(problem, "n_constraints", 0) > 0
        if constrained and not self.supports_constrained:
            raise UnknownOptimizerError(
                f"optimizer {self.name!r} does not support constrained "
                f"problems (got {problem.name!r} with "
                f"{problem.n_constraints} constraints)")
        if not constrained and not self.supports_unconstrained:
            raise UnknownOptimizerError(
                f"optimizer {self.name!r} requires a constrained problem "
                f"(got unconstrained {problem.name!r})")
        if self.requires_source and context.source is None:
            raise UnknownOptimizerError(
                f"optimizer {self.name!r} requires a transfer source model; "
                "configure StudySpec.transfer (or pass source=...)")
        if self.requires_source_data and context.source_data is None:
            raise UnknownOptimizerError(
                f"optimizer {self.name!r} requires raw source data "
                "(x_unit, y); configure StudySpec.transfer with fom=true "
                "(or pass source_data=...)")
        return self.builder(self.cls, problem, rng, context)


_OPTIMIZERS: dict[str, OptimizerSpec] = {}
_ALIASES: dict[str, str] = {}

#: The modules whose import runs the built-in registrations.  They are
#: listed one by one because :mod:`repro.bo` is a lazy package: importing
#: it registers nothing.
_BUILTIN_MODULES = ("repro.bo.random_search", "repro.bo.smac_rf", "repro.bo.mace",
                    "repro.baselines.mesmoc", "repro.baselines.tlmbo",
                    "repro.baselines.usemoc", "repro.core.kato")
_builtins_loaded = False


def _default_builder(cls, problem, rng, context: BuildContext):
    return cls(problem, rng=rng, **context.constructor_kwargs())


def _canonical(name: str) -> str:
    """Case- and separator-insensitive key ("KATO-TL" -> "kato_tl")."""
    return str(name).strip().lower().replace("-", "_").replace(" ", "_")


def register_optimizer(name: str, *, aliases: tuple[str, ...] | list[str] = (),
                       builder: Callable | None = None,
                       supports_constrained: bool = True,
                       supports_unconstrained: bool = True,
                       requires_source: bool = False,
                       requires_source_data: bool = False,
                       description: str = "",
                       overwrite: bool = False):
    """Class decorator adding an optimizer to the registry.

    Parameters
    ----------
    name:
        Canonical name (lower-case, underscores).  Hyphenated and mixed-case
        spellings resolve automatically; ``aliases`` is for genuinely
        different spellings ("rs" for "random_search").
    builder:
        ``(cls, problem, rng, context) -> optimizer``; defaults to
        ``cls(problem, rng=rng, **context.constructor_kwargs())``.
    supports_constrained / supports_unconstrained:
        The capability matrix checked before construction.
    requires_source / requires_source_data:
        Whether a transfer source model / raw source observations must be
        supplied through the :class:`BuildContext`.

    The same class may be registered under several names with different
    builders (e.g. ``"kato"`` and ``"kato_tl"``).
    """
    canonical = _canonical(name)

    def decorator(cls):
        doc = (cls.__doc__ or "").strip()
        summary = description or (doc.splitlines()[0] if doc else "")
        spec = OptimizerSpec(
            name=canonical,
            cls=cls,
            builder=builder or _default_builder,
            aliases=tuple(_canonical(a) for a in aliases),
            supports_constrained=supports_constrained,
            supports_unconstrained=supports_unconstrained,
            requires_source=requires_source,
            requires_source_data=requires_source_data,
            description=summary,
        )
        if canonical in _OPTIMIZERS and not overwrite:
            raise ValueError(f"optimizer {name!r} is already registered "
                             f"(to {_OPTIMIZERS[canonical].cls.__name__}); pass "
                             "overwrite=True to replace it")
        _OPTIMIZERS[canonical] = spec
        for alias in spec.aliases:
            existing = _ALIASES.get(alias)
            if existing not in (None, canonical) and not overwrite:
                raise ValueError(f"alias {alias!r} already points to {existing!r}")
            _ALIASES[alias] = canonical
        return cls

    return decorator


def _ensure_builtins() -> None:
    """Import the built-in optimizer modules so their entries exist."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    _builtins_loaded = True


def available_optimizers() -> list[str]:
    """Sorted canonical optimizer names."""
    _ensure_builtins()
    return sorted(_OPTIMIZERS)


def optimizer_aliases() -> dict[str, str]:
    """The alias table, ``{alias: canonical_name}`` (one source of truth)."""
    _ensure_builtins()
    return dict(sorted(_ALIASES.items()))


def optimizer_specs() -> list[OptimizerSpec]:
    """All registry rows, sorted by canonical name (for the CLI listing)."""
    _ensure_builtins()
    return [_OPTIMIZERS[name] for name in sorted(_OPTIMIZERS)]


def resolve_optimizer(name: str) -> OptimizerSpec:
    """Look up one optimizer by canonical name or alias.

    Raises :class:`UnknownOptimizerError` with a "did you mean" hint built
    from the full name+alias vocabulary.
    """
    _ensure_builtins()
    key = _canonical(name)
    key = _ALIASES.get(key, key)
    spec = _OPTIMIZERS.get(key)
    if spec is not None:
        return spec
    from repro.utils.validation import suggestion_hint
    vocabulary = sorted(set(_OPTIMIZERS) | set(_ALIASES))
    raise UnknownOptimizerError(
        f"unknown optimizer {name!r}{suggestion_hint(key, vocabulary)}; "
        f"available: {', '.join(sorted(_OPTIMIZERS))}")


def build_optimizer(name: str, problem, rng, *, quick: bool = True,
                    source=None, source_data=None, batch_size: int | None = None,
                    options: dict | None = None):
    """Resolve ``name`` and build a configured optimizer (the one front door)."""
    context = BuildContext(quick=quick, source=source, source_data=source_data,
                           batch_size=batch_size, options=dict(options or {}))
    return resolve_optimizer(name).build(problem, rng, context)
