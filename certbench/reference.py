"""Reference figures: run the benchmark over several seeds and summarise.

    python3 certbench/reference.py --workloads field_ladder,integer_certify,gate_mix \
        --seeds 1-10 --seconds 36 --trace 0

Each run is a separate ``certbench/run.py`` process, one after another.  For
every metric the table gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the distance
between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="field_ladder,integer_certify,gate_mix")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="36")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    runs: dict = {}
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} failed "
                  f"{result['failed']} correct {result['correct']}", file=sys.stderr)

    print("| workload | metric | unit | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for workload, results in runs.items():
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {workload} | {name} | {first['unit']} | {med:.4g} | {q1:.4g} | "
                  f"{q3:.4g} | {spread:.3f} |")


if __name__ == "__main__":
    main()
