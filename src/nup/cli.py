"""Command-line interface: verify, check, eval, search, export-set.

Exit codes are a stable scripting contract:
    0  the command's success predicate holds
    1  verification failure (unique products found, a claim failed, or a
       search that did not reach score 0)
    2  usage or parameter error

JSON reports are schema-stable and carry the tool version plus every
parameter, so runs are reproducible from the report alone.  Search reports
contain no volatile fields: the same invocation with the same seed writes
byte-identical output files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import __version__

# checker and search are imported by the commands that run them
from .families import FamilySpec, build_family, check_memory, expected_cardinality
from .sets import save_set_file
from .words import GroupParams, ParseError, from_string, to_string


def _family_spec(args, claims: bool = False) -> FamilySpec:
    if (args.p is None) != (args.q is None):
        raise ValueError("--p and --q must be given together")
    spec = FamilySpec(args.k) if args.p is None else FamilySpec(args.k, args.p, args.q)
    check_memory(spec, claims)
    return spec


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_verify(args) -> int:
    from .checker import scan_family

    t0 = time.perf_counter()
    spec = _family_spec(args)
    gset, table, uniques, timings = scan_family(spec)
    elapsed = time.perf_counter() - t0
    expected = expected_cardinality(spec)
    ok = len(uniques) == 0 and len(gset) == expected and gset.duplicates_removed == 0
    print(f"set: {spec.describe()}")
    print(f"size: {len(gset)} (formula: {expected}), duplicates removed: {gset.duplicates_removed}")
    print(f"square: {table.total_pairs()} factorizations over {len(table)} distinct products")
    print(f"unique products: {len(uniques)}")
    for z, (i, j) in uniques[:10]:
        print(f"  witness: {to_string(z)} = ({to_string(gset[i])}) * ({to_string(gset[j])})")
    print(f"result: {'non-unique product set' if ok else 'FAILED'}  [{elapsed:.2f}s]")
    if args.json:
        _write_json(
            args.json,
            {
                "version": __version__,
                "command": "verify",
                "parameters": {"k": spec.k, "p": spec.p, "q": spec.q},
                "set_size": len(gset),
                "expected_size": expected,
                "duplicates_removed": gset.duplicates_removed,
                "product_size": len(table),
                "total_factorizations": table.total_pairs(),
                "unique_count": len(uniques),
                "witnesses": [[to_string(z), [i, j]] for z, (i, j) in uniques],
                "counters": table.counters(),
                "timings": {**timings, "claims_s": 0.0},
                "wall_time_s": round(elapsed, 6),
                "exit_status": 0 if ok else 1,
            },
        )
    return 0 if ok else 1


def cmd_check(args) -> int:
    from .checker import verify_family

    spec = _family_spec(args, claims=True)
    summary = verify_family(spec)
    counts = summary.counts
    print(f"set: {spec.describe()}")
    print(f"size: {summary.set_size} (formula: {summary.expected_size}), duplicates removed: {summary.duplicates_removed}")
    print(f"claims: {counts['pass']} pass, {counts['fail']} fail, {counts['typo-suspect']} typo-suspect")
    flagged = [c for c in summary.claims if c.status != "pass"]
    for c in flagged[:10]:
        line = f"  [{c.status}] {c.source} params={c.params}"
        if c.witness:
            line += f" witness={c.witness}"
        print(line)
    if len(flagged) > 10:
        print(f"  ... and {len(flagged) - 10} more (full list in the JSON report)")
    print(f"coverage: {summary.covered_pairs}/{summary.total_pairs} factorizations ({summary.coverage:.6f})")
    print(f"unique products: {summary.unique_count}; claim/scan agreement: {summary.consistent}")
    print(f"elapsed: {summary.elapsed:.2f}s")
    ok = counts["fail"] == 0 and counts["typo-suspect"] == 0 and summary.coverage == 1.0 and summary.unique_count == 0
    if args.json:
        payload = summary.as_dict()
        payload["version"] = __version__
        payload["command"] = "check"
        payload["parameters"] = {"k": spec.k, "p": spec.p, "q": spec.q}
        payload["wall_time_s"] = round(summary.elapsed, 6)
        payload["exit_status"] = 0 if ok else 1
        _write_json(args.json, payload)
    return 0 if ok else 1


def cmd_eval(args) -> int:
    params = GroupParams(args.k)
    w = from_string(args.word, params)
    print(to_string(w))
    if args.classify:
        print(f"class: {w.classify()}")
    if args.sigma:
        print(f"sigma_a: {w.sigma_a():+d}")
        print(f"sigma_b: {w.sigma_b():+d}")
    return 0


def cmd_search(args) -> int:
    from .search import SearchConfig, run_search

    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        try:
            config = SearchConfig(**raw)
        except TypeError as exc:
            raise ValueError(f"bad search config: {exc}") from exc
    else:
        if args.size is None:
            raise ValueError("--size is required (or use --config)")
        config = SearchConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SearchConfig)})
    t0 = time.perf_counter()
    result = run_search(config)
    elapsed = time.perf_counter() - t0
    print(f"best score: {result.score} after {result.iterations} iterations [{elapsed:.2f}s]")
    print(f"restart best scores: {result.restart_scores}")
    for w in result.best:
        print(f"  {to_string(w)}")
    if args.out:
        save_set_file(result.best, args.out, header=f"search k={config.k} size={config.size} seed={config.seed} score={result.score}")
    if args.json:
        payload = {
            "version": __version__,
            "command": "search",
            "parameters": dataclasses.asdict(config),
            "result": result.as_dict(),
            "exit_status": 0 if result.score == 0 else 1,
        }
        _write_json(args.json, payload)
    return 0 if result.score == 0 else 1


def cmd_export_set(args) -> int:
    spec = _family_spec(args)
    gset = build_family(spec)
    save_set_file(gset, args.out, header=spec.describe())
    print(f"wrote {len(gset)} elements to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nup", description="Non-unique product sets: build, verify, check, search.")
    parser.add_argument("--version", action="version", version=f"nup {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pq=True):
        p.add_argument("--k", type=int, required=True, help="group parameter k >= 1")
        if pq:
            p.add_argument("--p", type=int, default=None, help="odd scale of the a-exponent")
            p.add_argument("--q", type=int, default=None, help="odd progression scale, q ≡ 1 mod 2^k")

    p = sub.add_parser("verify", help="build the set and scan its square for unique products")
    common(p)
    p.add_argument("--json", metavar="PATH", help="write a JSON report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check", help="run every structured matching claim plus the full scan")
    common(p)
    p.add_argument("--json", metavar="PATH", help="write a JSON claims report")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="reduce a word to canonical form")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("word", help="word over a, b, A, B with optional ^exponents")
    p.add_argument("--classify", action="store_true", help="print elliptic/hyperbolic class")
    p.add_argument("--sigma", action="store_true", help="print the two parity characters")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", help="stochastic search for non-unique product sets")
    p.add_argument("--config", metavar="PATH", help="JSON file of SearchConfig fields (overrides flags)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--length-cap", type=int, default=5, dest="word_length_cap")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--temp0", type=float, default=2.0)
    p.add_argument("--cooling", type=float, default=0.995)
    p.add_argument("--neighborhood", choices=("swap-one", "mutate-one"), default="swap-one")
    p.add_argument("--init", choices=("random", "base"), default="random")
    p.add_argument("--out", metavar="PATH", help="write the best set as a set file")
    p.add_argument("--json", metavar="PATH", help="write JSON metadata")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("export-set", help="write a built family as a set file")
    common(p)
    p.add_argument("-o", "--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_export_set)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
