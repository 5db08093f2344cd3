"""Checks that the work counts repeat exactly between two runs of one seed.

    python3 perfbench/repeat_check.py --workload oracle_search --seed 1 [--seconds 2]

Runs ``run.py --trace 1`` twice and compares every metric whose unit is
``count`` (search nodes, canonical_key calls, lemma instances checked, items
enumerated, calls emitted and simulated).  Exits 1 and lists the counts that
differ, if any.  A speed-up claimed as "less work" rests on these repeating.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def counts(workload: str, seed: int, seconds: float) -> dict[str, int]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    first = counts(args.workload, args.seed, args.seconds)
    second = counts(args.workload, args.seed, args.seconds)
    differ = sorted(name for name in first if first[name] != second.get(name))
    for name in differ:
        print(f"{name}: {first[name]} then {second.get(name)}")
    print(f"{len(first) - len(differ)} of {len(first)} counts repeat exactly")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
