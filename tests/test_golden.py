"""Golden outputs: committed results that every change must reproduce.

Each CLI case reruns one ``sweep`` or ``eval --optimize`` command through
``cli.main`` and compares it with the files in ``tests/golden/``.  One
rule picks every case's route: the exact one runs where
``cli._environment()`` equals ``environment.json``, that is, on the
Python, numpy, system, machine, C library, numpy ``exp`` dispatch target
and OpenBLAS core the bits depend on (not the kernel release).  There
the CSV and eval bytes must be equal and a sweep's manifest may differ
only in ``wall_time_s``.  Elsewhere, the ``HOST_FREE`` columns must be
equal and every ``bell_abs`` must agree within ``ABS_TOL``.  The
validate case runs every self-check suite; on the exact route each
suite's tolerance, residual count, residual bytes (as a SHA-256) and
worst residual must be equal, and elsewhere every suite must pass.  A
change that moves a value rewrites the files in the same commit, by
hand::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from phasewitness import cli, validate

#: CI reruns these under a second set of numpy and OpenBLAS kernels.
pytestmark = pytest.mark.kernels

GOLDEN = Path(__file__).parent / "golden"

#: Largest |bell_abs| difference accepted from a different environment.
ABS_TOL = 1e-12

#: Columns no kernel choice moves: they come from ``linspace``,
#: ``repeat``/``tile`` and an IEEE subtract or divide per cell, with no
#: ``exp``.  They must be equal in any environment.
HOST_FREE = ("axis1", "axis2", "nbar", "s_effective", "source", "violated", "clamped")

RECORDED = json.loads((GOLDEN / "environment.json").read_text(encoding="utf-8"))

#: The environment keys in which this run differs from the one the files
#: were made in.  Every case takes the exact route where there is none.
DIFFER = sorted({k for k, _ in cli._environment().items() ^ RECORDED.items()})

_README_MAP = ["sweep", "--mode", "eta-s", "--eta", "0.3:1.0:36", "--s", "-1:0:21"]

#: Sweep cases: the benchmark map, with the ignored --starts and --seed
#: that the benchmark passes, the README maps at xi = 0.3 and at xi = 1.0,
#: and the README thermal sweep.
SWEEPS = {
    "benchmark_map": [
        "sweep", "--mode", "eta-s", "--xi", "0.3", "--eta", "0.3:1.0:8", "--s", "-1:0:6",
        "--starts", "8", "--seed", "1",
    ],
    "readme_map_xi0.3": _README_MAP + ["--xi", "0.3"],
    "readme_map_xi1.0": _README_MAP + ["--xi", "1.0"],
    "readme_thermal": [
        "sweep", "--mode", "thermal", "--xi", "0.3", "--r", "0:0.94:20", "--s", "0:0:1",
        "--nbar-list", "0,0.5,2",
    ],
}

#: One clamped eval cell, optimized under each clamp rule.  Each rule
#: reports a certified curve point there, with its own value, so the
#: three files pin each rule's coefficients, curve solve and certificate.
EVALS = {
    f"eval_{clamp}": [
        "eval", "--xi", "1.0", "--s", "-0.8", "--noise", "detection", "--eta", "0.85",
        "--optimize", "--clamp", clamp,
    ]
    for clamp in cli.CLAMP_MODES
}


def _run_sweep(name: str, directory: Path) -> tuple[bytes, dict]:
    out = directory / f"{name}.csv"
    assert cli.main(SWEEPS[name] + ["--out", str(out)]) == cli.EXIT_OK
    manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
    return out.read_bytes(), manifest


def _run_eval(name: str) -> bytes:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(EVALS[name]) == cli.EXIT_OK
    return stdout.getvalue().encode()


def _validate_record() -> dict:
    """Per suite: tolerance, residual count, SHA-256 of the float64 residuals, worst in hex."""
    record = {}
    for name, suite in validate._SUITES.items():
        tol, residuals = suite()
        values = np.asarray(residuals, dtype=float)
        record[name] = {
            "tolerance": tol,
            "count": values.size,
            "sha256": hashlib.sha256(values.tobytes()).hexdigest(),
            "worst": float(np.max(values)).hex(),
        }
    return record


def _rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _differences(got: list[dict], want: list[dict], exact: bool) -> list[str]:
    """The cells of ``got`` that differ from ``want``, one line each."""
    if len(got) != len(want):
        return [f"{len(got)} cells, golden has {len(want)}"]
    lines = []
    for idx, (g, w) in enumerate(zip(got, want)):
        if exact:
            differ = sorted(k for k in w if g.get(k) != w[k])
        else:
            differ = [k for k in HOST_FREE if k in w and g.get(k) != w[k]]
            if not abs(float(g["bell_abs"]) - float(w["bell_abs"])) <= ABS_TOL:
                differ.append("bell_abs")
        if differ:
            shown = ", ".join(f"{k} {g.get(k)!r} != {w[k]!r}" for k in differ)
            lines.append(f"cell {idx}: {shown}")
    return lines


def _eval_row(data: bytes) -> dict:
    report = json.loads(data)
    return {
        "bell_abs": report["bell_abs"],
        "violated": report["violated"],
        "clamped": report["clamped"],
        "s_effective": report["s_effective"],
        "source": report["meta"]["source"],
    }


def _assert_same(differences: list[str]) -> None:
    assert not differences, "\n".join(
        [f"{len(differences)} differences; the first:"] + differences[:10]
    )


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden(name, tmp_path):
    data, manifest = _run_sweep(name, tmp_path)
    want = gzip.decompress((GOLDEN / f"{name}.csv.gz").read_bytes())
    want_manifest = json.loads((GOLDEN / f"{name}.manifest.json").read_text(encoding="utf-8"))
    differences = _differences(_rows(data), _rows(want), exact=not DIFFER)
    if not DIFFER:
        if data != want and not differences:
            differences.append("the CSV bytes differ outside the cells")
        manifest.pop("wall_time_s")
        want_manifest.pop("wall_time_s")
        differences += [
            f"manifest {k}: {manifest.get(k)!r} != {v!r}"
            for k, v in want_manifest.items()
            if manifest.get(k) != v
        ]
    _assert_same(differences)


@pytest.mark.parametrize("name", sorted(EVALS))
def test_eval_matches_golden(name):
    data = _run_eval(name)
    report = json.loads(data)
    assert report["clamped"] is True
    assert report["meta"]["source"] == "curve"
    want = (GOLDEN / f"{name}.json").read_bytes()
    if not DIFFER:
        got, golden = json.loads(data), json.loads(want)
        differences = [f"{k}: {got.get(k)!r} != {v!r}" for k, v in golden.items() if got.get(k) != v]
        if data != want and not differences:
            differences.append("the output bytes differ outside the report")
    else:
        differences = _differences([_eval_row(data)], [_eval_row(want)], exact=False)
    _assert_same(differences)


def test_validate_matches_golden():
    if not DIFFER:
        got = _validate_record()
        want = json.loads((GOLDEN / "validate.json").read_text(encoding="utf-8"))
        differences = [f"{n}: {got.get(n)} != {w}" for n, w in want.items() if got.get(n) != w]
        differences += [f"{n}: not in the golden file" for n in got if n not in want]
    else:
        differences = [r.line() for r in validate.run_suites() if not r.passed]
    _assert_same(differences)


def test_exact_route_is_taken_where_the_files_were_made():
    # Every golden manifest names the recorded environment, so the one
    # route rule holds for the files themselves; on the host that made
    # them that route is the exact one, and it knows both kernel keys.
    for name in SWEEPS:
        manifest = json.loads((GOLDEN / f"{name}.manifest.json").read_text(encoding="utf-8"))
        assert manifest["environment"] == RECORDED
    assert {"exp_dispatch", "openblas_core"} <= set(RECORDED)
    if DIFFER:
        pytest.skip(f"not the recorded environment: {', '.join(DIFFER)} differ")
    assert "unknown" not in RECORDED.values()


def _timeless(manifest: dict) -> dict:
    return {k: v for k, v in manifest.items() if k != "wall_time_s"}


def regenerate() -> None:
    """Rewrite every file in ``tests/golden/`` from the current code.

    A sweep manifest is rewritten only when a key other than
    ``wall_time_s`` changed, so a rerun leaves the unchanged ones alone.
    """
    with tempfile.TemporaryDirectory() as tmp:
        for name in SWEEPS:
            data, manifest = _run_sweep(name, Path(tmp))
            (GOLDEN / f"{name}.csv.gz").write_bytes(gzip.compress(data, mtime=0))
            path = GOLDEN / f"{name}.manifest.json"
            kept = json.loads(path.read_text(encoding="utf-8")) if path.exists() else None
            if kept is None or _timeless(kept) != _timeless(manifest):
                path.write_bytes(Path(tmp, f"{name}.csv.manifest.json").read_bytes())
    for name in EVALS:
        (GOLDEN / f"{name}.json").write_bytes(_run_eval(name))
    record = json.dumps(_validate_record(), indent=2) + "\n"
    (GOLDEN / "validate.json").write_text(record, encoding="utf-8")
    environment = json.dumps(cli._environment(), indent=2) + "\n"
    (GOLDEN / "environment.json").write_text(environment, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
