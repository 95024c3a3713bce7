"""Write one workload's input files: scenario, ground truth and models.

Run as a child of the benchmark, so that building the inputs leaves no
trace in the measuring process's memory or caches:

    python3 perfbench/prepare.py --workload '<Workload as JSON>' --seed 1 --dir DIR
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def prepare(wl, seed: int, workdir: Path) -> None:
    from mvtrack.modelio import write_models
    from mvtrack.stream import gt_to_rows, write_motchallenge, write_scenario
    from workloads import build_scenario, fit_models

    scenario = build_scenario(wl, seed)
    write_scenario(scenario, workdir / "scenario.scn")
    write_motchallenge(gt_to_rows(scenario.gt), workdir / "gt.txt")
    write_models(fit_models(wl, seed), workdir / "models.txt")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    from workloads import Workload

    prepare(Workload(**json.loads(args.workload)), args.seed, Path(args.dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
