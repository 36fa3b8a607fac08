"""Write ``eta_s_bound.json``, the per-cell lower bound for the eta-s-map checks.

Each cell's bound is ``search.grid_oracle`` on a real-axis 4-D grid over
the search box.  Every grid point lies inside the box the multi-start
search explores, so a converged search never reports less.  The bound
does not depend on the workload seed.

    python3 perfbench/make_bound.py
"""

from __future__ import annotations

import json

import layout

layout.use_source_tree()

import workloads  # noqa: E402
from phasewitness.noise import DetectionNoise  # noqa: E402
from phasewitness.search import grid_oracle  # noqa: E402
from phasewitness.states import TmsvSpec  # noqa: E402
from phasewitness.witness import detection_objective  # noqa: E402

POINTS_PER_AXIS = 21


def main() -> None:
    spec = TmsvSpec(workloads.XI)
    box = workloads.search_config(workloads.MAP, 0).box_radius
    cells = []
    for eta, s in workloads.map_cells():
        best = grid_oracle(detection_objective(spec, s, DetectionNoise(eta)), box, POINTS_PER_AXIS)
        cells.append(
            {
                "eta": eta,
                "s": s,
                "bound": best.bell_abs,
                "settings": list(best.settings.to_vector()),
            }
        )
    data = {
        "oracle": {"box_radius": box, "points_per_axis": POINTS_PER_AXIS, "real_axis": True},
        "xi": workloads.XI,
        "cells": cells,
    }
    write(data)


def write(data: dict) -> None:
    """One cell per line, so a changed bound shows as a one-line diff."""
    cells = ",\n".join("  " + json.dumps(c) for c in data["cells"])
    head = json.dumps({k: v for k, v in data.items() if k != "cells"})[:-1]
    workloads.BOUND_FILE.write_text(f'{head}, "cells": [\n{cells}\n]}}\n')


if __name__ == "__main__":
    main()
