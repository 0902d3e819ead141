"""Repeat benchmark runs over seeds and summarize their steadiness.

    python3 perfbench/steady.py --first-seed 1 --out perfbench/BASELINE.json

For each workload in BENCHMARK.json, runs the benchmark once per seed
(seeds first-seed .. first-seed + 9), one run at a time, and records
for every end-to-end metric its values, median, quartiles and spread (the
distance between the first and third quartile over the median).  Writes the
summary as JSON with the Python version and the processor count.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(args.first_seed, args.first_seed + RUNS)),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict = {name: [] for name in bounds}
        failed = attempted = 0
        for seed in report["seeds"]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
            failed += result["failed"]
            attempted += result["attempted"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        summary = {name: summarize(v) for name, v in values.items()}
        for name, entry in summary.items():
            entry["bound"] = bounds[name]
        report["workloads"][workload] = {"attempted": attempted, "failed": failed,
                                         "metrics": summary}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for workload, data in report["workloads"].items():
        for name, entry in data["metrics"].items():
            print(f"{workload:17s} {name:12s} median {entry['median']:.4f} "
                  f"spread {entry['spread']:.4f} bound {entry['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
