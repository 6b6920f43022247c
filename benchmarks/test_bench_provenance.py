"""Every BENCH record carries its provenance.

A speed figure is only comparable with another when both name the commit,
the host's CPU count and the Python/numpy/scipy versions they ran on.
"""

import json
import os
import platform

import numpy as np
from conftest import record_bench


def test_record_bench_stamps_provenance(tmp_path, monkeypatch):
    # Redirect the module-level destinations of the conftest that defines
    # record_bench (two conftest modules share the name in a full run).
    settings = record_bench.__globals__
    monkeypatch.setitem(settings, "BENCH_DIR", str(tmp_path))
    monkeypatch.setitem(settings, "BENCH_RECORDS_PATH",
                        str(tmp_path / "records.jsonl"))
    record_bench("BENCH_PROBE", {"value": 1})

    stored = json.loads((tmp_path / "BENCH_PROBE.json").read_text())
    line = json.loads((tmp_path / "records.jsonl").read_text())
    for record in (stored["records"][-1], line):
        assert record["value"] == 1
        stamp = record["provenance"]
        assert set(stamp) == {"git_sha", "cpu_count", "python", "numpy",
                              "scipy"}
        assert stamp["cpu_count"] == os.cpu_count()
        assert stamp["python"] == platform.python_version()
        assert stamp["numpy"] == np.__version__
        sha = stamp["git_sha"]
        assert sha is None or (len(sha) == 40
                               and all(c in "0123456789abcdef" for c in sha))
