"""Benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures at a reduced
budget by default, so ``pytest benchmarks/ --benchmark-only`` finishes in
minutes on a laptop.  Set ``KATO_BENCH_SCALE=paper`` in the environment to run
the full, paper-scale budgets (hours).
"""

from __future__ import annotations

import functools
import importlib.metadata
import json
import os
import platform
import subprocess

import pytest

SCALE = os.environ.get("KATO_BENCH_SCALE", "quick").lower()

#: When set, every machine-readable BENCH record is also appended (as JSON
#: lines) to this file, so CI can upload the records as a workflow artifact.
BENCH_RECORDS_PATH = os.environ.get("KATO_BENCH_RECORDS", "")

#: Every BENCH record also lands in a per-benchmark ``BENCH_<name>.json``
#: here (the repo root, git-ignored), in the shape ``python -m repro db
#: ingest-bench`` reads, so local runs flow into a results store with no
#: extra flags.  Point ``KATO_BENCH_DIR`` elsewhere to redirect.
BENCH_DIR = os.environ.get(
    "KATO_BENCH_DIR", os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Formatted tables recorded by the benchmarks, echoed after the run so they
#: survive pytest's stdout capture (these are the rows/series the paper reports).
_REPORTS: list[str] = []


def budget(quick: int, paper: int) -> int:
    """Pick the simulation budget for the current benchmark scale."""
    return paper if SCALE == "paper" else quick


def record_report(text: str) -> None:
    """Print a regenerated paper table and keep it for the end-of-run summary."""
    print(text)
    _REPORTS.append(text)


@functools.lru_cache(maxsize=None)
def provenance() -> dict:
    """Where a BENCH record was measured: commit, host and library versions.

    ``git_sha`` is ``None`` outside a git checkout, and a library version is
    ``None`` when the package is not installed.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
            check=True).stdout.strip() or None
    except (OSError, subprocess.CalledProcessError):
        sha = None

    def version(package: str) -> str | None:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"git_sha": sha, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}


def record_bench(name: str, record: dict) -> None:
    """Emit one machine-readable ``NAME {json}`` line for CI regression tracking.

    Every record carries a ``provenance`` entry (see :func:`provenance`).
    The line goes to stdout (greppable in the pytest log); when
    ``KATO_BENCH_RECORDS`` names a file, to that JSONL file as well so the
    records survive as a workflow artifact; and always to
    ``BENCH_<name>.json`` under ``KATO_BENCH_DIR`` for ``db ingest-bench``.
    """
    record = {**record, "provenance": provenance()}
    print()
    print(f"{name} " + json.dumps(record, sort_keys=True))
    if BENCH_RECORDS_PATH:
        with open(BENCH_RECORDS_PATH, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"bench_record": name, **record},
                                    sort_keys=True) + "\n")
    _append_bench_json(name, record)


def _append_bench_json(name: str, record: dict) -> None:
    """Accumulate a record into this benchmark's ``BENCH_<name>.json``."""
    path = os.path.join(BENCH_DIR, f"{name}.json")
    payload = {"name": name, "records": []}
    try:
        with open(path, encoding="utf-8") as handle:
            existing = json.load(handle)
        if isinstance(existing.get("records"), list):
            payload = existing
    except (OSError, ValueError):
        pass  # absent or corrupt: start fresh
    payload["records"].append(record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", f"regenerated paper tables/figures ({SCALE} scale)")
    for text in _REPORTS:
        terminalreporter.write_line(text)
        terminalreporter.write_line("")


@pytest.fixture(scope="session")
def bench_scale() -> str:
    return SCALE
