"""Locate the checkout the benchmark lives in and import the package from it."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def use_source_tree() -> None:
    """Put the checkout's ``src`` first on the import path.

    Exits with an error when the checkout holds no package source, so
    the benchmark never measures an installed copy by accident.
    """
    if not (SRC / "phasewitness" / "__init__.py").is_file():
        raise SystemExit(f"error: no phasewitness source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import phasewitness

    if not Path(phasewitness.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: phasewitness imported from {phasewitness.__file__}, not {SRC}")
