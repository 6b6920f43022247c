"""The unified Study API: the one public front door for running optimizations.

* :mod:`repro.study.registry` -- decorator-based optimizer registry every
  optimizer in :mod:`repro.bo`, :mod:`repro.baselines` and :mod:`repro.core`
  registers into (names, aliases, capabilities, builders).
* :class:`StudySpec` -- a declarative, JSON-serializable run specification
  (problem, optimizer, budget, batch size, seeds, backend, transfer source).
* :class:`Study` -- the driver owning the ask/evaluate/tell loop, with a
  callback protocol (``on_init`` / ``on_batch`` / ``on_finish``) and JSONL
  checkpointing so a killed study resumes bit-identically.
* :func:`run_study` -- multi-seed execution and aggregation on top of
  :class:`Study` (the engine behind ``experiments/``).
* :mod:`repro.study.cli` -- the ``python -m repro`` command line
  (``run`` / ``resume`` / ``list-optimizers`` / ``list-circuits``).

This ``__init__`` loads heavyweight submodules lazily (PEP 562): optimizer
modules import :mod:`repro.study.registry` at class-definition time, and a
package import that eagerly pulled in :mod:`repro.bo` again would cycle.
"""

from __future__ import annotations

import importlib

from repro.study.registry import (
    BuildContext,
    OptimizerSpec,
    UnknownOptimizerError,
    available_optimizers,
    build_optimizer,
    optimizer_aliases,
    optimizer_specs,
    register_optimizer,
    resolve_optimizer,
)

_LAZY_ATTRS = {
    "StudySpec": "repro.study.spec",
    "TransferSpec": "repro.study.spec",
    "make_source_model": "repro.study.sources",
    "Study": "repro.study.study",
    "StudyResult": "repro.study.study",
    "run_study": "repro.study.study",
    "StudyCallback": "repro.study.callbacks",
    "CallbackList": "repro.study.callbacks",
    "LoggingCallback": "repro.study.callbacks",
    "EarlyStopping": "repro.study.callbacks",
    "CheckpointError": "repro.study.checkpoint",
    "read_checkpoint": "repro.study.checkpoint",
    "StudyCheckpoint": "repro.study.checkpoint",
    "JSONLCheckpoint": "repro.study.checkpoint",
    "coerce_checkpoint": "repro.study.checkpoint",
}

__all__ = [
    "BuildContext",
    "OptimizerSpec",
    "UnknownOptimizerError",
    "available_optimizers",
    "build_optimizer",
    "optimizer_aliases",
    "optimizer_specs",
    "register_optimizer",
    "resolve_optimizer",
    *sorted(_LAZY_ATTRS),
]


def __getattr__(name: str):
    module_name = _LAZY_ATTRS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_ATTRS))
