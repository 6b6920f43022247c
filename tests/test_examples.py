"""Import smoke test for the ``examples/`` scripts.

Each script guards ``main()`` behind ``if __name__ == "__main__"``, so
loading it under another run name only resolves its imports and
module-level names.  A name an example still uses but the package no
longer exports then fails here instead of in a user's hands.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    namespace = runpy.run_path(str(path), run_name="__smoke__")
    assert callable(namespace.get("main"))
