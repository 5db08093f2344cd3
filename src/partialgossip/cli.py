"""Command-line driver.

Commands: pvalue, table, synth, verify, oracle, check-lemma.
Exit codes: 0 success, 1 validation/usage error, 2 violation or timeout
(verification target missed, lemma violations found, search budget spent,
also when it leaves a lemma's facts undecided).
All JSON output has a fixed key order so golden-file comparisons are stable.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .constructions import (
    max_feasible_blocks,
    synth_doubling,
    synth_multiblock,
    synth_tree_variant,
)
from .core import (
    ValidationError,
    is_k_informing,
    schedule_from_json,
    schedule_to_json,
    simulate,
)
from .formulas import REGIME_BAND, classify_regime, p_min_calls
from .graph import classify_components, full_graph, to_dot
from .lemmas import (LEMMA_IDS, MAX_PRELIM, MAX_SAMPLED_N, SCHEME_SIZE_LIMIT, LemmaParams,
                     check_lemma)
from .oracle import FOUND, SearchConfig, min_calls_bruteforce

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VIOLATION = 2

# digit cap of printed integers when the interpreter sets no int-to-str
# limit: Python's default limit
_MAX_DIGITS = 4300

# Size caps on command-line input; the library takes any size.  Simulating
# n persons holds n bitmasks of up to n bits, so memory grows as n^2:
# verify of a schedule file with 2^15 persons and no call peaks at 86 MB
# (Python 3.11).
MAX_PERSONS = 2**16  # synth's n and the n of verify's schedule file
MAX_ROWS = 10**5  # rows of table

_METHODS = {
    "doubling": synth_doubling,
    "tree": synth_tree_variant,
    "multiblock": synth_multiblock,
}


def _max_digits() -> int:
    """How many digits an int may have and still print: the int-to-str limit, else _MAX_DIGITS."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or _MAX_DIGITS


def _emit(doc: dict, fmt: str, text: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, separators=(",", ":")))
    else:
        print(text)


def _cmd_pvalue(args) -> int:
    regime = classify_regime(args.n, args.k)
    p = p_min_calls(args.n, args.k)
    digits = _max_digits()
    if p >= 10**digits:
        raise ValidationError(f"P(n,{args.k}) has more than {digits} digits")
    doc: dict = {"p": p, "regime": regime.kind}
    if regime.kind == REGIME_BAND:
        doc["i"] = regime.i
        text = f"P({args.n},{args.k}) = {p}  [regime 2, i={regime.i}]"
    else:
        text = f"P({args.n},{args.k}) = {p}  [regime 1]"
    _emit(doc, args.format, text)
    return EXIT_OK


def _cmd_table(args) -> int:
    if args.k < 2:
        raise ValidationError(f"k must be >= 2, got {args.k}")
    if args.n_min > args.n_max:
        raise ValidationError(f"empty range: n_min={args.n_min} > n_max={args.n_max}")
    if args.n_max - args.n_min >= MAX_ROWS:
        raise ValidationError(f"at most {MAX_ROWS} rows, got {args.n_max - args.n_min + 1}")
    # 2^(k-1) - 1 < 10^digits iff k <= bit_length(10^digits), so the
    # boundary is only built once it is known to be printable
    digits = _max_digits()
    if args.k > (10**digits).bit_length():
        raise ValidationError(
            f"k={args.k} too large: the boundary 2^(k-1)-1 has more than {digits} digits"
        )
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        regime = classify_regime(n, args.k)
        row = {"n": n, "p": p_min_calls(n, args.k), "regime": regime.kind}
        if regime.kind == REGIME_BAND:
            row["i"] = regime.i
        rows.append(row)
    boundary = (1 << (args.k - 1)) - 1
    if args.format == "json":
        print(json.dumps({"k": args.k, "boundary": boundary, "rows": rows},
                         separators=(",", ":")))
        return EXIT_OK
    print(f"k={args.k}  (regime boundary at n = 2^(k-1)-1 = {boundary})")
    print(f"{'n':>6} {'P(n,k)':>8} {'regime':>7} {'i':>4}")
    for row in rows:
        i_txt = str(row.get("i", "-"))
        mark = "  <- boundary" if row["n"] == boundary else ""
        print(f"{row['n']:>6} {row['p']:>8} {row['regime']:>7} {i_txt:>4}{mark}")
    return EXIT_OK


def _check_persons(n: int) -> None:
    if n > MAX_PERSONS:
        raise ValidationError(f"at most {MAX_PERSONS} persons, got n={n}")


def _write_all(files: dict[str, str]) -> None:
    """Write each text to its path, every one or none.

    Each text goes to a temporary file beside its target, and the targets
    are replaced only once every write has succeeded, so a command that
    fails leaves no partial result.
    """
    temps = []
    try:
        for path, text in files.items():
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            temp = f"{path}.{os.getpid()}.tmp"
            with open(temp, "w") as f:
                temps.append(temp)
                f.write(text)
        for temp, path in zip(temps, files):
            os.replace(temp, path)
    except OSError as e:
        for temp in temps:
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise ValidationError(f"cannot write {path}: {e.strerror or e}") from e


def _cmd_synth(args) -> int:
    _check_persons(args.n)
    if args.blocks is not None and args.method != "multiblock":
        raise ValidationError(f"--blocks applies to multiblock only, not {args.method}")
    if args.out and args.dot and os.path.realpath(args.out) == os.path.realpath(args.dot):
        raise ValidationError(f"--out and --dot name one file: {args.out}")
    method = _METHODS[args.method]
    if args.method == "multiblock":
        schedule = method(args.n, args.k, args.i, args.blocks)
    else:
        schedule = method(args.n, args.k, args.i)
    if not is_k_informing(schedule, args.k):  # validate before writing
        raise AssertionError("synthesized schedule failed its own verification")
    dot = to_dot(schedule) if args.dot or args.format == "dot" else None
    files = {}
    if args.out:
        files[args.out] = schedule_to_json(schedule, indent=2) + "\n"
    if args.dot:
        files[args.dot] = dot
    _write_all(files)
    doc = {
        "method": args.method,
        "n": args.n,
        "k": args.k,
        "i": args.i,
        "calls": len(schedule.calls),
        "k_informing": True,
    }
    if args.method == "multiblock":
        doc["blocks"] = args.blocks if args.blocks else max_feasible_blocks(args.n, args.k, args.i)
    if args.format == "dot":
        print(dot, end="")
    elif args.out:
        doc["file"] = args.out
        _emit(doc, args.format,
              f"wrote {len(schedule.calls)} calls ({args.method}, n={args.n}, "
              f"k={args.k}, i={args.i}) to {args.out}")
    elif args.format == "json":
        print(schedule_to_json(schedule))
    else:
        print(schedule_to_json(schedule, indent=2))
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        text = Path(args.file).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read {args.file}: {e}") from e
    s = schedule_from_json(text)
    _check_persons(s.n)
    if not 1 <= args.k <= s.n:
        raise ValidationError(f"k={args.k} out of range [1, n={s.n}]")
    aw = simulate(s).awareness()
    informing = min(aw) >= args.k
    exact = all(a == args.k for a in aw)
    components = [
        {"vertices": sorted(vs), "kind": str(kind)}
        for vs, kind in classify_components(full_graph(s))
    ]
    doc = {
        "n": s.n,
        "k": args.k,
        "calls": len(s.calls) - s.prelim,
        "preliminary": s.prelim,
        "awareness": aw,
        "min_awareness": min(aw),
        "k_informing": informing,
        "exact_k_informing": exact,
        "components": components,
    }
    if args.format == "json":
        print(json.dumps(doc, separators=(",", ":")))
    else:
        verdict = "PASS" if informing else "FAIL"
        print(f"{verdict}: min awareness {min(aw)} (target k={args.k})"
              f"{', exact' if exact else ''}")
        print(f"  n={s.n}, {doc['preliminary']} preliminary + {doc['calls']} calls")
        print(f"  awareness: {aw}")
        for comp in components:
            print(f"  component {comp['vertices']}: {comp['kind']}")
    return EXIT_OK if informing else EXIT_VIOLATION


def _cmd_oracle(args) -> int:
    cfg = SearchConfig(time_budget=args.budget_secs)
    result = min_calls_bruteforce(args.n, args.k, cfg)
    doc = {
        "n": args.n,
        "k": args.k,
        "status": result.status,
        "min_calls": result.min_calls,
        "refuted_depth": result.refuted_depth,
        "nodes": result.nodes,
        "witness": list(result.witness.calls) if result.witness else None,
    }
    if args.stats:
        doc["stats"] = result.stats
    if args.format == "json":
        print(json.dumps(doc, separators=(",", ":")))
    elif result.status == FOUND:
        print(f"min calls for (n={args.n}, k={args.k}): {result.min_calls}")
        print(f"  witness: {list(result.witness.calls)}")
    else:
        print(f"{result.status}: no schedule with <= {result.refuted_depth} calls exists "
              f"({result.nodes} nodes searched)")
    if args.stats and args.format != "json":
        flat = {name: value for name, value in result.stats.items() if name != "passes"}
        print("  stats: " + " ".join(f"{name}={value}" for name, value in flat.items()))
        for entry in result.stats["passes"]:
            print("  pass: " + " ".join(f"{name}={value}" for name, value in entry.items()))
    return EXIT_OK if result.status == FOUND else EXIT_VIOLATION


def _cmd_check_lemma(args) -> int:
    params = LemmaParams(
        max_sampled_n=args.max_n,
        samples=args.samples,
        max_prelim=args.prelim_max,
        seed=args.seed,
        bound_slack=args.bound_slack,
    )
    report = check_lemma(args.lemma, params)
    doc = report.to_json_dict()
    if args.stats:
        doc["stats"] = {
            "generated": report.generated,
            "rejected": report.rejected,
            "undecided": report.undecided,
            "checked": report.instances_checked,
            "elapsed_s": round(report.elapsed, 3),
        }
    if args.format == "json":
        print(json.dumps(doc, separators=(",", ":")))
    else:
        undecided = f", {report.undecided} undecided" if report.undecided else ""
        print(f"{report.lemma_id}: {report.instances_checked} instances, "
              f"{len(report.violations)} violations{undecided}")
        for v in report.violations[:10]:
            print(f"  bound {v.expected_bound} violated (observed {v.observed_n}): {v.instance}")
        if len(report.violations) > 10:
            print(f"  ... and {len(report.violations) - 10} more")
        if args.stats:
            print("  stats: " + " ".join(f"{name}={value}" for name, value in doc["stats"].items()))
    return EXIT_OK if report.ok and not report.undecided else EXIT_VIOLATION


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with exit code 1; argparse's own 2 means a violation here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="partialgossip",
        description="Optimal partial-gossip call counts, schedule synthesis and verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="text",
                       help="output format (default: text)")

    p = sub.add_parser("pvalue", help="print P(n,k), its regime and band index")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_pvalue)

    p = sub.add_parser("table", help="tabulate P(n,k) for a range of n")
    p.add_argument("k", type=int)
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("synth", help="synthesize an optimal schedule of n+i calls")
    p.add_argument("method", choices=sorted(_METHODS))
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("i", type=int)
    p.add_argument("--blocks", type=int, default=None,
                   help="block count for multiblock (default: maximum feasible)")
    p.add_argument("--out", help="write schedule JSON here (default: stdout)")
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.add_argument("--format", choices=("json", "dot", "text"), default="text",
                   help="stdout format (default: text)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="simulate a schedule file and report awareness")
    p.add_argument("file")
    p.add_argument("k", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exact minimum call count by exhaustive search")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--budget-secs", type=float, default=SearchConfig().time_budget)
    p.add_argument("--stats", action="store_true",
                   help="also report the search counters (memo, bound, orbit and sleep "
                        "cuts, canonical keys computed); after a timeout the cut counts "
                        "can read low, since the interrupted nodes' class-counted cuts "
                        "are never added")
    add_format(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check-lemma", help="run one lemma verification suite")
    p.add_argument("lemma", choices=LEMMA_IDS)
    defaults = LemmaParams()
    p.add_argument("--max-n", type=int, default=defaults.max_sampled_n,
                   help=f"largest person count of L2's random instances, at most {MAX_SAMPLED_N}; "
                        "L1c and L5b check the unicyclic scheme classes on "
                        f"4..min(MAX_N, {SCHEME_SIZE_LIMIT}) persons and need 4 (L1a, L1b, "
                        "L3, L4a, L4b, L5a and L6s1 ignore it)")
    p.add_argument("--samples", type=int, default=defaults.samples,
                   help="random instances of L2, in all, on 5..MAX_N persons "
                        "(every other suite ignores it)")
    p.add_argument("--prelim-max", type=int, default=defaults.max_prelim,
                   help=f"largest preliminary-call count, at most {MAX_PRELIM}, at least 1 for L3")
    p.add_argument("--seed", type=int, default=defaults.seed,
                   help="seed of the random draws of L2, L3, L4a, L4b, L5a and L5b "
                        "(L1a, L1b, L1c and L6s1 ignore it)")
    p.add_argument("--bound-slack", type=int, default=defaults.bound_slack,
                   help="tighten bounds by this much, >= 0 (negative-control mode)")
    p.add_argument("--stats", action="store_true",
                   help="also report candidates generated, rejected by hypothesis, "
                        "left undecided by a search's budget and checked, and the "
                        "suite's time")
    add_format(p)
    p.set_defaults(func=_cmd_check_lemma)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on its first call, then reused."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
