"""Check the exact counts and the bypass predictions of the traced runs.

Runs every workload traced twice with one seed.  The exact counts
(``run.EXACT_COUNTS``) must be identical between the two runs; the
quadrature counts must be zero on the search workloads and the search
counts zero on validate-full.

    python3 perfbench/repeat_counts.py --seed 1

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import layout

layout.use_source_tree()

import workloads  # noqa: E402

#: The layer each workload must bypass, as named in the traced report.
BYPASS = {
    workloads.MAP: "qp_core counts zero",
    workloads.THERMAL: "qp_core counts zero",
    workloads.VALIDATE: "search counts zero",
}


def traced_report(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [
            sys.executable, str(layout.ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1",
        ],
        capture_output=True, text=True, check=True, timeout=180,
    )
    return json.loads(out.stdout.splitlines()[-2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in workloads.WORKLOADS:
        first, second = (traced_report(workload, args.seed) for _ in range(2))
        same = first["exact_counts"] == second["exact_counts"]
        bypassed = first["bypass"][BYPASS[workload]] and second["bypass"][BYPASS[workload]]
        ok &= same and bypassed
        print(
            f"{workload}: counts {'repeat' if same else 'DIFFER'} {first['exact_counts']}"
            + ("" if same else f" vs {second['exact_counts']}")
            + f"; {BYPASS[workload]}: {bypassed}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
