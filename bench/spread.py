"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 bench/spread.py --workload scale --seeds 1 2 3 4 5 [--seconds 20]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median and its quartile spread
(Q3 - Q1) / median, next to the metric's regression bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if not report["correct"]:
            print(f"seed {seed}: {report['failed']} failed operations", file=sys.stderr)
        for name, m in report["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}"
                                          for k, v in report["metrics"].items()), flush=True)
    worst = 0.0
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{m['name']:18s} median {med:10.4g} {m['unit']:6s} spread {spread:6.3f} "
              f"bound {m['bound']}{flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
