"""Benchmark of partialgossip: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload synth_verify --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``, so
nothing is built or installed.  Each workload runs in child interpreters of
its own, one after another, with no threads, so that set-up time and peak
memory belong to that workload alone.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones (see README.md).  The last line of
standard output is the result object; a record with the machine facts is
printed before it and appended to ``perfbench/out/records.jsonl``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "partialgossip"
SCHEMA_VERSION = 1
WORKLOADS = ("synth_verify", "oracle_search", "lemma_sweep")
SETUPS = 3  # set-ups per untraced run; setup_s is their median
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for "end_to_end" and "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {group: {m["name"]: m["unit"] for m in spec[group]}
            for group in ("end_to_end", "per_layer")}


def spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
          deadline: float) -> dict:
    """Runs one child interpreter and returns its result, with ``setup_s`` added."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    # fixed string hashing: no work count may depend on the order of a set
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} did not finish within the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n{err.strip()}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, naming the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 units: dict[str, str]) -> dict:
    """One workload's metrics ({name: {"value", "unit"}}) and its result record."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            setups.append(spawn(workload, seed, seconds, trace, True, deadline)["setup_s"])
    child = spawn(workload, seed, seconds, trace, False, deadline)
    setups.append(child["setup_s"])
    attempted, failed = child["attempted"], len(child["failures"])
    error_rate = failed / attempted
    if trace:
        values = child["per_layer"]
    else:
        values = {
            "wall_s": median(child["pass_s"]),
            "setup_s": median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
            "success_rate": 1.0 - error_rate,
        }
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    record = {
        "schema_version": SCHEMA_VERSION,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "passes": len(child["pass_s"]),
        "pass_s": child["pass_s"],
        "setup_runs_s": setups,
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate,
        "failures": child["failures"][:20],
        "work": child["work"],
        "work_repeats": child["work_repeats"],
        "metrics": values,
    }
    return {
        "record": record,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no partialgossip sources under {PACKAGE}", file=sys.stderr)
        return 1
    group = "per_layer" if args.trace else "end_to_end"
    try:
        units = declared_metrics()[group]
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, args.trace, units) for w in names}
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    (HERE / "out").mkdir(exist_ok=True)
    with open(HERE / "out" / "records.jsonl", "a") as log:
        for w, res in results.items():
            rec = res["record"]
            log.write(json.dumps(rec) + "\n")
            for f in rec["failures"]:
                print(f"FAILED {w}: {f}")
            if not rec["work_repeats"]:
                print(f"FAILED {w}: work counts differ between passes")
            if not args.trace:
                m = rec["metrics"]
                print(f"{w}: wall_s {m['wall_s']:.4f} s, setup_s {m['setup_s']:.4f} s, "
                      f"peak_rss_mb {m['peak_rss_mb']:.1f} MB, "
                      f"error_rate {rec['error_rate']:.4f} ({rec['failed']}/{rec['attempted']}), "
                      f"{rec['passes']} passes")
            print("record " + json.dumps(rec))

    records = [res["record"] for res in results.values()]
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{name}": v for w, res in results.items()
                   for name, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 and r["work_repeats"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
