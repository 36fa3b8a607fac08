"""Command-line interface: single evaluations, sweeps, self-validation.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 I/O
error (an output that cannot be written, or a closed stdout).  Sweep
output is CSV plus a sibling ``<out>.manifest.json`` holding everything
needed to reproduce the run bit-exactly.  A sweep runs in one process,
and ``eval --optimize`` is a one-cell sweep; each CSV row names what its
cell reports (a certified curve point, the asymptote |c0| or an
uncertified curve point) with that point's relative gradient norm and
Hessian eigenvalue, and the manifest counts each kind; an uncertified
cell also gets a warning on stderr.  No command searches, and none
needs more than numpy.  ``validate`` runs every self-check suite, or
those ``--suite`` names, at one depth.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import sys
import time
from dataclasses import fields
from typing import Sequence

import numpy as np

from . import __version__, search, witness
from .noise import DetectionNoise, ThermalNoise
from .search import SweepResult, optimize_cells, sweep_eta_s, sweep_thermal
from .states import TmsvSpec
from .witness import CLAMP_BOUNDED, CLAMP_MODES, BellSettings, WitnessReport

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

MODE_ETA_S = "eta-s"
MODE_THERMAL = "thermal"

CSV_HEADER = (
    "axis1,axis2,nbar,bell_abs,violated,clamped,s_effective,"
    "a1_re,a1_im,a2_re,a2_im,b1_re,b1_im,b2_re,b2_im,source,grad_norm,hess_max"
)
# One field per CSV_HEADER column: %.17g for each float, %s for nbar
# (empty in eta-s mode), violated, clamped and source.
_CSV_ROW = (
    "%.17g,%.17g,%s,%.17g,%s,%s,%.17g,"
    "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%.17g,%.17g"
)


def _parse_grid(text: str, name: str) -> list[float]:
    """Parse ``lo:hi:count`` (endpoints inclusive) or a single value."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) != 3:
            raise ValueError
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(
            f"{name}: expected 'lo:hi:count' or a single number, got {text!r}"
        ) from None
    # linspace turns an infinite endpoint, or a span that overflows, into
    # NaN cells.
    if not math.isfinite(hi - lo):
        raise ValueError(f"{name}: grid endpoints and span must be finite, got {text!r}")
    if count < 1:
        raise ValueError(f"{name}: grid count must be at least 1, got {count}")
    if count == 1 and lo != hi:
        raise ValueError(f"{name}: a 1-point grid needs lo == hi, got {text!r}")
    # numpy refuses a count it cannot allocate with a MemoryError, and one
    # past its index range with a ValueError or an IndexError.
    try:
        return [float(v) for v in np.linspace(lo, hi, count)]
    except (MemoryError, ValueError, IndexError):
        raise ValueError(f"{name}: grid count {count} is too large") from None


def _parse_settings(text: str) -> BellSettings:
    tokens = text.split(",")
    if len(tokens) != 4:
        raise ValueError(
            f"--settings needs 4 comma-separated complex values, got {len(tokens)}"
        )
    try:
        values = [complex(tok.strip()) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"--settings: {exc}") from None
    return BellSettings(*values)


def _parse_float_list(text: str, name: str) -> list[float]:
    # A blank value is the empty list, which the sweep refuses by name;
    # an empty entry inside a list is refused here.
    tokens = text.split(",") if text.strip() else []
    try:
        return [float(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"{name}: expected comma-separated numbers, got {text!r}") from None


def _json_number(value):
    """``value``, or None (JSON null) for a float that is not finite: JSON has no NaN."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _report_json(report: WitnessReport) -> dict:
    v = report.settings.to_vector()
    pairs = {f.name: list(v[2 * i : 2 * i + 2]) for i, f in enumerate(fields(BellSettings))}
    return {
        "settings": pairs,
        "s_effective": report.s_effective,
        "bell_value": report.bell_value,
        "bell_abs": report.bell_abs,
        "violated": report.violated,
        "clamped": report.clamped,
        "meta": {k: _json_number(v) for k, v in (report.meta or {}).items()},
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasewitness",
        description="Noise-adaptive entanglement witness evaluation and sweeps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--xi", type=float, required=True, help="squeezing parameter")

    ev = sub.add_parser("eval", parents=[shared], help="evaluate the witness once, print JSON")
    ev.add_argument("--s", type=float, required=True, help="base order parameter in [-1, 0]")
    ev.add_argument("--noise", default="none", choices=["none", "detection", "thermal"])
    ev.add_argument("--eta", type=float, help="detection efficiency (detection noise)")
    ev.add_argument("--r", type=float, help="interaction strength r (thermal noise)")
    ev.add_argument("--nbar", type=float, help="environment occupation (default 0)")
    ev.add_argument("--clamp", default=CLAMP_BOUNDED, choices=list(CLAMP_MODES))
    ev.add_argument("--settings", help="a1,a2,b1,b2 as complex literals")
    ev.add_argument("--optimize", action="store_true", help="maximize over settings")

    sw = sub.add_parser("sweep", parents=[shared], help="optimize over a parameter grid, write CSV")
    sw.add_argument("--mode", required=True, choices=[MODE_ETA_S, MODE_THERMAL])
    sw.add_argument("--s", required=True, help="grid lo:hi:count or single value")
    sw.add_argument("--eta", help="eta grid (eta-s mode)")
    sw.add_argument("--r", help="r grid (thermal mode)")
    sw.add_argument("--nbar-list", help="comma-separated occupations (default 0)")
    sw.add_argument("--out", required=True, help="CSV output path")
    # Read by no cell; kept only because perfbench/workloads.py passes them.
    sw.add_argument("--starts", type=int, help="ignored")
    sw.add_argument("--seed", type=int, help="ignored")

    va = sub.add_parser("validate", help="run the self-check suites")
    # No choices: listing the suites would import validate in every
    # command.  run_suites refuses an unknown name with the valid ones.
    va.add_argument("--suite", action="append", help="run only the named suite (repeatable)")
    return parser


#: Per subcommand and noise model or sweep mode, the noise flags it
#: reads.  The first is required, and one it does not read is refused.
_NOISE_FLAGS = {
    "eval": {"none": (), "detection": ("eta",), "thermal": ("r", "nbar")},
    "sweep": {MODE_ETA_S: ("eta",), MODE_THERMAL: ("r", "nbar_list")},
}


def _check_noise_flags(args: argparse.Namespace, option: str, choice: str) -> None:
    table = _NOISE_FLAGS[args.command]
    reads = table[choice]
    if reads and getattr(args, reads[0]) is None:
        raise ValueError(f"{option} {choice} requires --{reads[0]}")
    unread = {name for names in table.values() for name in names} - set(reads)
    given = sorted("--" + n.replace("_", "-") for n in unread if getattr(args, n) is not None)
    if given:
        raise ValueError(f"{option} {choice} does not read {', '.join(given)}")


def _warn_uncertified(count: int, total: int) -> None:
    """One stderr line when a cell's verdict comes from an uncertified point."""
    if count:
        print(f"warning: {count} of {total} cells report an uncertified curve point (source"
              " 'uncertified'); their violated flags are not certified", file=sys.stderr)


def _cmd_eval(args: argparse.Namespace) -> int:
    if bool(args.settings) == bool(args.optimize):
        raise ValueError("exactly one of --settings or --optimize is required")
    _check_noise_flags(args, "--noise", args.noise)
    spec = TmsvSpec(args.xi)
    if args.noise == "detection":
        noise = DetectionNoise(args.eta)
    else:
        # No noise is the thermal channel at r = 0: s' = s, lift and transmission 1.
        noise = ThermalNoise(args.r or 0.0, args.nbar or 0.0)
    objective = witness._objective(spec, args.s, noise, args.clamp)
    if args.optimize:
        report = optimize_cells([objective])[0]
        _warn_uncertified(int(report.meta["source"] == "uncertified"), 1)
    else:
        report = objective(_parse_settings(args.settings))
    print(json.dumps(_report_json(report), indent=2, allow_nan=False))
    return EXIT_OK


def _csv_rows(result: SweepResult) -> list[str]:
    bell_abs = np.abs(result.bell_value)
    nbar = [""] * len(bell_abs) if result.nbar is None else ["%.17g" % v for v in result.nbar]
    flags = (witness._violated(bell_abs), witness._clamped(result.s_effective))
    columns = (
        result.axis1.tolist(), result.axis2.tolist(), nbar, bell_abs.tolist(),
        *(np.where(flag, "true", "false").tolist() for flag in flags),
        result.s_effective.tolist(), *result.settings.T.tolist(),
        result.source.tolist(), result.grad_norm.tolist(), result.hess_max.tolist(),
    )
    return [CSV_HEADER, *(_CSV_ROW % row for row in zip(*columns))]


def _exp_dispatch() -> str:
    """The SIMD target numpy's float64 ``exp`` dispatches to, or 'unknown' before numpy 2."""
    try:
        info = np.lib.introspect.opt_func_info(func_name="^exp$", signature="float64")
        return info["exp"]["dd"]["current"]
    except (AttributeError, KeyError):
        return "unknown"


def _openblas_core() -> str:
    """The CPU core the OpenBLAS in ``numpy.libs`` runs its kernels for, or 'unknown'."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        name = next(n for n in sorted(os.listdir(libs)) if n.startswith("libscipy_openblas"))
        corename = ctypes.CDLL(os.path.join(libs, name)).scipy_openblas_get_corename64_
    except (OSError, StopIteration, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _environment() -> dict[str, str]:
    """The manifest's environment block: what a sweep's bits depend on.

    The bits depend on the Python and numpy versions, on the system,
    machine and C library (``platform``, which leaves out the kernel
    release: no value moves with it), and on which math kernels run.
    numpy's ``exp`` dispatch target changes the last bits of a sweep's
    values on the same versions.  No sweep calls LAPACK, so the OpenBLAS
    core does not change a sweep's bits; it changes those of
    ``validate``'s Gauss-Hermite nodes (``hermgauss`` calls
    ``eigvalsh``).  The golden tests compare bytes only where this block
    equals the recorded one.
    """
    libc = "".join(platform.libc_ver())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": "-".join(p for p in (platform.system(), platform.machine(), libc) if p),
        "exp_dispatch": _exp_dispatch(),
        "openblas_core": _openblas_core(),
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_noise_flags(args, "--mode", args.mode)
    spec = TmsvSpec(args.xi)
    s_grid = _parse_grid(args.s, "--s")
    started = time.perf_counter()
    params: dict[str, object] = {
        "mode": args.mode,
        "xi": float(args.xi),
        "s_grid": s_grid,
        "clamp_mode": CLAMP_BOUNDED,
    }
    if args.mode == MODE_ETA_S:
        eta_grid = _parse_grid(args.eta, "--eta")
        params["eta_grid"] = eta_grid
        sweep, grids = sweep_eta_s, (eta_grid, s_grid)
    else:
        r_grid = _parse_grid(args.r, "--r")
        nbar_list = _parse_float_list(
            "0" if args.nbar_list is None else args.nbar_list, "--nbar-list"
        )
        params["r_grid"] = r_grid
        params["nbar_list"] = nbar_list
        sweep, grids = sweep_thermal, (r_grid, s_grid, nbar_list)
    # Fail before the search, not after it, when the CSV cannot be written.
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        print(f"error: cannot write output: no directory {out_dir!r}", file=sys.stderr)
        return EXIT_IO
    for path in (args.out, args.out + ".manifest.json"):
        if os.path.isdir(path):
            print(f"error: cannot write output: {path!r} is a directory", file=sys.stderr)
            return EXIT_IO
    try:
        result = sweep(spec, *grids)
    except MemoryError:
        raise ValueError(f"a sweep of {math.prod(map(len, grids))} cells is too large") from None
    wall_time_s = time.perf_counter() - started

    rows = _csv_rows(result)
    sources = result.source.tolist()
    checks = {"values_finite": bool(np.isfinite(result.bell_value).all())}
    manifest = {
        "command": "sweep",
        "version": __version__,
        "environment": _environment(),
        **params,
        "rows": len(rows) - 1,
        "csv": os.path.basename(args.out),
        "wall_time_s": wall_time_s,
        "cells": {
            **{source: sources.count(source) for source in ("curve", "asymptote", "uncertified")},
            # numpy's max, unlike Python's, is NaN wherever a NaN is.
            "max_grad_norm": _json_number(float(np.max(result.grad_norm))),
        },
        # Read at run time, so the manifest names what this sweep ran with.
        "curve_solve": {
            "seeds": search._CURVE_SEEDS.tolist(),
            "iterations": search._CURVE_ITERATIONS,
            "cert_grad_norm": search.CERT_GRAD_NORM,
            "grad_norm_unit": witness._GRAD_NORM_UNIT,
            "cert_hess_max": search.CERT_HESS_MAX,
            "hess_max_unit": witness._HESS_MAX_UNIT,
        },
        "checks": checks,
    }
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(rows) + "\n")
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, allow_nan=False)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    if not all(checks.values()):
        failed = [k for k, v in checks.items() if not v]
        print(f"error: checks failed: {failed}", file=sys.stderr)
        return EXIT_VALIDATION
    _warn_uncertified(sources.count("uncertified"), len(sources))
    print(f"wrote {len(rows) - 1} rows to {args.out}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    # Imported here: no other command needs the self-check suites.
    from . import validate

    results = validate.run_suites(args.suite)
    print(validate.format_report(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


#: Flags whose values may start with '-' (grids like -1:0:21); they are
#: folded into --flag=value form so argparse does not read them as options.
_GRID_VALUE_FLAGS = ("--s", "--eta", "--r", "--nbar-list")


def _fold_grid_values(argv: Sequence[str]) -> list[str]:
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token in _GRID_VALUE_FLAGS:
            value = next(tokens, None)
            out.append(token if value is None else f"{token}={value}")
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fold_grid_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    handlers = {"eval": _cmd_eval, "sweep": _cmd_sweep, "validate": _cmd_validate}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout: devnull takes the interpreter's flush at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
