"""Show that the exact-identities checks catch a broken program.

Runs one round of exact-identities as it is and once more with
PROJCOND_MUTATE=eta, which corrupts the clone normalizing constant, and
exits 0 only if the corrupted run reports more failed operations, an
incorrect result, and a failed clone-density operation: the check that the
density integrates to 1, which does not re-type the program's formula.
Run from the root of a projcond checkout:

    python3 perfbench/power_check.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

COMMAND = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
           "--workload", "exact-identities", "--seed", "1", "--seconds", "1", "--trace", "0"]


def run(mutate: bool) -> dict:
    env = dict(os.environ)
    env.pop("PROJCOND_MUTATE", None)
    if mutate:
        env["PROJCOND_MUTATE"] = "eta"
    out = subprocess.run(COMMAND, env=env, capture_output=True, text=True, check=True)
    failures = [line for line in out.stderr.splitlines() if line.startswith("perfbench:")]
    return dict(json.loads(out.stdout.strip().splitlines()[-1]), failures=failures)


def main() -> int:
    base, mutated = run(False), run(True)
    for name, res in (("as is", base), ("PROJCOND_MUTATE=eta", mutated)):
        print(f"{name}: correct={res['correct']} failed={res['failed']}/{res['attempted']}")
        for line in res["failures"]:
            print("  " + line)
    # failure lines read "perfbench: round <r> <operation> failed: ..."
    mutated_ops = {line.split()[3] for line in mutated["failures"]}
    caught = (not mutated["correct"] and "clone-density" in mutated_ops
              and mutated["failed"] / mutated["attempted"] > base["failed"] / base["attempted"])
    print("mutation caught" if caught else "mutation NOT caught")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
