"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 [--workload above-cap ...] [--seconds 35]

Runs are sequential.  Each run's JSON result is kept in perfbench/out/; the
table gives, per workload, the median, the quartiles, the spread
(q3 - q1) / median and the bound, and the fail ratio over all runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    OUT.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            (OUT / f"result-{workload}-seed{seed}.json").write_text(json.dumps(result) + "\n")
            results.append(result)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        all_ok = all_ok and correct and failed == 0
        print(f"{workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, jobs {attempted}, "
              f"fail_ratio {failed / attempted:g}, correct {correct}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < metric["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {metric['name']:12s} median {med:10.4f} {metric['unit']:5s} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:.3f} bound {metric['bound']}{flag}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
