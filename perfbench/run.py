"""lietriples benchmark.

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 25 --trace 0

Runs one workload (cold-cli, warm-analysis or descriptor-files; see
workloads.py) against the sources in src/ of the checkout this file sits in.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from a
traced run (see tracer.py) plus the tracing overhead.

Exits 2 without a result when the lietriples sources are missing.
"""

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-cli", "warm-analysis", "descriptor-files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lietriples", "cli.py")):
        print(f"perfbench: no lietriples sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    # On SIGTERM, unwind so that the running child is killed and the scratch
    # directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    metrics, lines, tally = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in lines:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(f"  ops attempted {tally.attempted}, failed {tally.failed} "
          f"({tally.known} of them the known missing-q defect); "
          f"failed_frac = {tally.failed / tally.attempted:.4f}")
    for problem in tally.problems:
        print(f"  {problem}")
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
