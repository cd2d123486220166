"""Run every workload, each in a fresh process, and print its end-to-end
metrics with units and its attempted and failed operations.  Run from the
root of a projcond checkout:

    python3 perfbench/all_workloads.py [--seed 1] [--seconds 15]

Exits 0 only if every workload's outputs are correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args(argv)
    all_correct = True
    for workload in WORKLOADS:
        out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed",
                              str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
                             capture_output=True, text=True, check=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        all_correct &= res["correct"]
        metrics = "  ".join(f"{name} {m['value']:.4g} {m['unit']}"
                            for name, m in res["metrics"].items())
        print(f"{workload}: {metrics}  attempted {res['attempted']}  failed {res['failed']}"
              f"  correct {res['correct']}", flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
