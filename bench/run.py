#!/usr/bin/env python3
"""Layered benchmark for nup: verify, check and search through the public CLI.

    python3 bench/run.py --workload verify-scan --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --self-test

Every nup command runs as ``python -m nup ...`` in a fresh single-threaded
process, one at a time, with the package imported from ``src`` of the
checkout that holds this file.  A run first sets up the workload's inputs
several times (``setup_s`` is the median), then runs whole rounds of the
workload's commands until ``--seconds`` would be exceeded (at least one
round), checks every output and prints the metrics.  The time metrics are
scaled to a reference machine speed, which a probe timed after every
command measures (see ``probe``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  With ``--trace 1`` the run makes one untraced
round and then traced rounds (bench/traced.py), and the tracing overhead is
the difference between the two.  See bench/README.md for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import affine_oracle as oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-up passes: at least SETUP_PASSES, and more, up to SETUP_MAX_PASSES, until
# they add up to SETUP_MIN_S, so a set-up of a few short commands is sampled
# as long as a slow one
SETUP_PASSES = 5
SETUP_MAX_PASSES = 15
SETUP_MIN_S = 3.0
RUN_LIMIT_S = 170.0  # a run must end within 180 s; no command starts after this
MUL = "words.NormalForm.__mul__"
# The probe's time at the reference machine speed.  Time metrics are scaled
# to that speed, so values from runs on a faster or slower moment (or
# machine) stay comparable; only their ratio to this constant matters.
PROBE_REF_S = 0.010

# (k, p, q); p = q = None is the base set T
VERIFY_POINTS = ((4, None, None), (5, None, None), (1, 1, 3), (1, 3, 3), (1, 1, 5), (2, 1, 5), (2, 3, 5), (3, 1, 9))
CHECK_POINTS = ((3, None, None), (4, None, None), (1, 3, 5), (2, 1, 5), (2, 3, 5))
SEARCH_SIZE = 14
SEARCH_RESTARTS = 2
SEARCH_BUDGET = 1000
SEARCH_CONFIGS = (
    # the README's best configuration for a symmetric size-14 set in G(1)
    ("symmetric", ["--symmetric", "--length-cap", "5", "--temp0", "0.35", "--cooling", "1.0"]),
    ("mutate-one", ["--neighborhood", "mutate-one", "--length-cap", "5"]),
)
QUICK_VERIFY_POINTS = ((1, 1, 3), (1, 3, 3))
QUICK_CHECK_POINTS = ((3, None, None), (1, 3, 5))
QUICK_SEARCH_BUDGET = 200
# chart rows whose printed scaled-family j-range deviates from the pattern;
# "m" rows instantiate only for k >= 2
TYPO_ROWS = {"chart:y(M-1,lo)Y0": 1, "chart:x(m,lo)X1": 2}

WORKLOADS = ("verify-scan", "check-claims", "search-anneal")


class SetupError(RuntimeError):
    """The workload's inputs could not be built or failed their checks."""


def closed_form(k: int, p, q) -> int:
    M = 1 << k
    if p is None:
        return 2 * M * M + 4 * M + 1
    return (2 * M * M + 5 * M + 2) * q - (M + 1)


def point_args(point) -> list[str]:
    k, p, q = point
    return ["--k", str(k)] if p is None else ["--k", str(k), "--p", str(p), "--q", str(q)]


def point_name(point) -> str:
    k, p, q = point
    return f"k={k}" if p is None else f"k={k},p={p},q={q}"


# -- processes -----------------------------------------------------------------


def probe() -> float:
    """Median time of a fixed pure-Python loop that shares nothing with nup.

    It files tuple keys into a dict of lists, as the square scan does.  The
    run times it after every command; its median over the run measures how
    fast the machine is running at that time.
    """
    laps = []
    for _ in range(5):
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(20000):
            table.setdefault((i & 4095, i % 3), []).append((i, i + 1))
        laps.append(time.perf_counter() - t0)
    return statistics.median(laps)


@dataclass
class Proc:
    rc: int
    wall: float
    rss_mb: float
    log: str


class Runner:
    """Runs one child at a time through bench/spawn.py, which reports its own peak RSS."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("NUP_THREADS", None)
        self.spawner = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], cwd=ROOT, env=env, text=True,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True)
        self.count = 0
        self.probes = [probe()]

    def close(self) -> None:
        """Stop the spawner, and with it any command still running."""
        if self.spawner.poll() is None:
            os.killpg(self.spawner.pid, signal.SIGKILL)
        self.spawner.wait()

    def slowdown(self) -> float:
        """The machine's slowness during the run relative to the reference speed."""
        return statistics.median(self.probes) / PROBE_REF_S

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def run(self, argv: list[str]) -> Proc:
        limit = self.time_left()
        if limit <= 0:
            return Proc(-1, 0.0, 0.0, "not started: run time limit reached")
        self.count += 1
        log_path = self.work / f"log{self.count}.txt"
        request = {"argv": [sys.executable, *argv], "log": str(log_path), "timeout": limit}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        self.probes.append(probe())
        return Proc(reply["rc"], reply["wall"], reply["maxrss_kb"] / 1024.0, log_path.read_text(errors="replace"))

    def nup(self, args: list[str]) -> Proc:
        return self.run(["-m", "nup", *args])

    def traced(self, args: list[str], trace_out: Path) -> Proc:
        return self.run([str(BENCH / "traced.py"), "trace", str(trace_out), "--", *args])


# -- output checks -------------------------------------------------------------


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _exit_problems(proc: Proc, report: dict, verdict: int) -> list[str]:
    problems = []
    if proc.rc != verdict:
        problems.append(f"exit code {proc.rc}, report implies {verdict}")
    if report.get("exit_status") != proc.rc:
        problems.append(f"report exit_status {report.get('exit_status')} != exit code {proc.rc}")
    return problems


def judge_verify(proc: Proc, report, point, oracle_distinct=None) -> list[str]:
    if report is None:
        return [f"no JSON report (exit {proc.rc}): {proc.log[-300:]}"]
    n = closed_form(*point)
    want = {
        "set_size": n,
        "expected_size": n,
        "duplicates_removed": 0,
        "total_factorizations": n * n,
        "unique_count": 0,
        "witnesses": [],
    }
    problems = [f"{key} = {report.get(key)!r}, expected {value!r}" for key, value in want.items() if report.get(key) != value]
    distinct = report.get("product_size")
    if not isinstance(distinct, int) or not 0 < distinct <= n * n:
        problems.append(f"product_size {distinct!r} out of range")
    elif oracle_distinct is not None and distinct != oracle_distinct:
        problems.append(f"product_size {distinct} != {oracle_distinct} from the k=1 oracle")
    ok = report.get("unique_count") == 0 and report.get("set_size") == report.get("expected_size") and report.get("duplicates_removed") == 0
    return problems + _exit_problems(proc, report, 0 if ok else 1)


def judge_check(proc: Proc, report, point) -> list[str]:
    if report is None:
        return [f"no JSON report (exit {proc.rc}): {proc.log[-300:]}"]
    k, p, _ = point
    n = closed_form(*point)
    want = {
        "set_size": n,
        "expected_size": n,
        "total_pairs": n * n,
        "covered_pairs": n * n,
        "coverage": 1.0,
        "unique_count": 0,
        "consistent": True,
        "soundness_ok": True,
    }
    problems = [f"{key} = {report.get(key)!r}, expected {value!r}" for key, value in want.items() if report.get(key) != value]
    claims = report.get("claims") or []
    fails = [c["source"] for c in claims if c.get("status") == "fail"]
    if fails:
        problems.append(f"failed claims: {fails[:5]}")
    suspects = [c for c in claims if c.get("status") == "typo-suspect"]
    expected = set() if p is None else {row for row, min_k in TYPO_ROWS.items() if k >= min_k}
    if {c["source"] for c in suspects} != expected:
        problems.append(f"typo-suspect rows {sorted(c['source'] for c in suspects)}, expected {sorted(expected)}")
    for c in suspects:
        prm = c.get("params", {})
        if prm.get("range_used") != prm.get("pattern_range") or prm.get("pattern_range") == prm.get("printed_range"):
            problems.append(f"typo-suspect {c['source']} did not fall back to its pattern range: {prm}")
    summary = report.get("claims_summary", {})
    if summary != {"pass": len(claims) - len(fails) - len(suspects), "fail": len(fails), "typo_suspect": len(suspects)}:
        problems.append(f"claims_summary {summary} disagrees with the claim list")
    ok = not fails and not suspects and report.get("coverage") == 1.0 and report.get("unique_count") == 0
    return problems + _exit_problems(proc, report, 0 if ok else 1)


def judge_search(proc: Proc, report, budget: int, seed: int, symmetric: bool, out_words) -> list[str]:
    if report is None:
        return [f"no JSON report (exit {proc.rc}): {proc.log[-300:]}"]
    res = report.get("result", {})
    problems = []
    if report.get("parameters", {}).get("seed") != seed:
        problems.append(f"seed {report.get('parameters', {}).get('seed')} != {seed}")
    score, scores, iters = res.get("score"), res.get("restart_scores", []), res.get("iterations")
    words = res.get("elements", [])
    if res.get("size") != SEARCH_SIZE or len(words) != SEARCH_SIZE:
        problems.append(f"result size {res.get('size')} with {len(words)} elements, expected {SEARCH_SIZE}")
    if len(scores) != SEARCH_RESTARTS or score != min(scores, default=None):
        problems.append(f"score {score} is not the best of restart scores {scores}")
    full = (budget // SEARCH_RESTARTS) * SEARCH_RESTARTS
    if not isinstance(iters, int) or iters > full or (score != 0 and iters != full):
        problems.append(f"{iters} iterations for a budget of {full} at score {score}")
    if out_words != words:
        problems.append("set file differs from the reported elements")
    try:
        maps = [oracle.element(w) for w in words]
    except ValueError as exc:
        return problems + [f"unparsable element: {exc}"]
    if len(set(maps)) != len(maps):
        problems.append("reported elements are not distinct in G(1)")
    unique = oracle.square_stats(maps)[1]
    if unique != score:
        problems.append(f"score {score} != {unique} unique products from the k=1 oracle")
    if symmetric and not oracle.is_inverse_closed(maps):
        problems.append("symmetric result is not inverse-closed")
    return problems + _exit_problems(proc, report, 0 if unique == 0 else 1)


# -- operations ------------------------------------------------------------------


@dataclass
class Outcome:
    key: object  # the point or search configuration
    name: str
    problems: list
    wall: float
    rss_mb: float
    pairs: int
    report: dict | None = None
    trace: dict | None = None


@dataclass
class Workload:
    name: str
    points: tuple = ()
    budget: int = SEARCH_BUDGET
    setup_files: dict = field(default_factory=dict)  # point or config -> set file
    oracle_distinct: dict = field(default_factory=dict)  # k=1 point -> distinct products
    product_sizes: dict = field(default_factory=dict)  # point -> product_size seen

    @property
    def kind(self) -> str:
        return self.name.split("-")[0]


def search_args(flags: list[str], budget: int, seed: int, report_path: Path, out_path: Path) -> list[str]:
    return ["search", "--k", "1", "--size", str(SEARCH_SIZE), *flags, "--budget", str(budget), "--restarts",
            str(SEARCH_RESTARTS), "--seed", str(seed), "--json", str(report_path), "--out", str(out_path)]


def judge_search_files(proc: Proc, report, out_path: Path, budget: int, seed: int, flags: list[str]) -> list[str]:
    out_words = oracle.read_set_file(out_path) if out_path.exists() else None
    return judge_search(proc, report, budget, seed, "--symmetric" in flags, out_words)


def run_op(runner: Runner, wl: Workload, item, seed: int | None, traced: bool) -> Outcome:
    """One CLI command of the workload with its output checks."""
    tag = f"o{runner.count + 1}"
    report_path = runner.work / f"{tag}.json"
    trace_path = runner.work / f"{tag}.trace.json"
    if wl.kind == "search":
        label, flags = item
        out_path = runner.work / f"{tag}.set.txt"
        args = search_args(flags, wl.budget, seed, report_path, out_path)
        name = f"search {label} seed={seed}"
    else:
        args = [wl.kind, *point_args(item), "--json", str(report_path)]
        name = f"{wl.kind} {point_name(item)}"
    proc = runner.traced(args, trace_path) if traced else runner.nup(args)
    report = _load_json(report_path)
    if wl.kind == "verify":
        problems = judge_verify(proc, report, item, wl.oracle_distinct.get(item))
        if report and not problems:
            seen = wl.product_sizes.setdefault(item, report["product_size"])
            if seen != report["product_size"]:
                problems.append(f"product_size {report['product_size']} differs from {seen} in an earlier round")
    elif wl.kind == "check":
        problems = judge_check(proc, report, item)
    else:
        problems = judge_search_files(proc, report, out_path, wl.budget, seed, item[1])
    trace = None
    if traced:
        trace = _load_json(trace_path)
        if trace is None:
            problems.append("traced run wrote no trace")
    for path in (report_path, trace_path):
        path.unlink(missing_ok=True)
    # only an operation whose output passed its checks counts work; a failed
    # or never started one counts no pairs and is left out of every rate
    if problems:
        pairs = 0
    elif wl.kind == "search":
        pairs = report["result"]["iterations"] * SEARCH_SIZE**2
    else:
        pairs = closed_form(*item) ** 2
    return Outcome(item if wl.kind != "search" else item[0], name, problems, proc.wall, proc.rss_mb, pairs, report, trace)


def setup(runner: Runner, wl: Workload, rng: random.Random) -> tuple[float, float, int]:
    """Build the workload's inputs several times; returns (median pass wall, peak RSS MB, passes)."""
    passes, peak = [], 0.0
    # every pass repeats the same commands
    seeds = {label: rng.randrange(1 << 31) for label, _ in SEARCH_CONFIGS}
    while len(passes) < SETUP_PASSES or (sum(passes) < SETUP_MIN_S and len(passes) < SETUP_MAX_PASSES):
        n = len(passes)
        total = 0.0
        if wl.kind == "search":
            for label, flags in SEARCH_CONFIGS:
                seed = seeds[label]
                path = runner.work / f"init-{label}.txt"
                report_path = runner.work / f"init-{label}.json"
                proc = runner.nup(search_args(flags, SEARCH_RESTARTS, seed, report_path, path))
                problems = judge_search_files(proc, _load_json(report_path), path, SEARCH_RESTARTS, seed, flags)
                if problems:
                    raise SetupError(f"setup search {label}: {problems}")
                total += proc.wall
                peak = max(peak, proc.rss_mb)
                wl.setup_files[label] = (1, path)
        else:
            for point in wl.points:
                path = runner.work / f"T-{point_name(point).replace(',', '-').replace('=', '')}.txt"
                proc = runner.nup(["export-set", *point_args(point), "-o", str(path)])
                if proc.rc != 0 or not path.exists():
                    raise SetupError(f"export-set {point_name(point)} exited {proc.rc}: {proc.log[-300:]}")
                total += proc.wall
                peak = max(peak, proc.rss_mb)
                wl.setup_files[point] = (point[0], path)
                if n == 0:
                    check_exported(wl, point, path)
        passes.append(total)
    return statistics.median(passes), peak, len(passes)


def check_exported(wl: Workload, point, path: Path) -> None:
    words = oracle.read_set_file(path)
    n = closed_form(*point)
    if len(words) != n:
        raise SetupError(f"{point_name(point)}: exported {len(words)} elements, closed form {n}")
    if point[0] != 1:
        return
    maps = [oracle.element(w) for w in words]
    if len(set(maps)) != n:
        raise SetupError(f"{point_name(point)}: exported elements are not distinct in G(1)")
    distinct, unique = oracle.square_stats(maps)
    if unique != 0:
        raise SetupError(f"{point_name(point)}: the k=1 oracle finds {unique} unique products")
    wl.oracle_distinct[point] = distinct


def round_items(wl: Workload, rng: random.Random) -> list:
    if wl.kind == "search":
        return [(config, rng.randrange(1 << 31)) for config in SEARCH_CONFIGS]
    items = list(wl.points)
    rng.shuffle(items)
    return [(point, None) for point in items]


def measure(runner: Runner, wl: Workload, rng: random.Random, seconds: float, traced: bool) -> list[list[Outcome]]:
    """Whole rounds until the next one would end after `seconds`; at least one."""
    rounds: list[list[Outcome]] = []
    t0 = time.perf_counter()
    while True:
        rounds.append([run_op(runner, wl, item, seed, traced) for item, seed in round_items(wl, rng)])
        elapsed = time.perf_counter() - t0
        per_round = elapsed / len(rounds)
        if elapsed + per_round > seconds or per_round > runner.time_left():
            return rounds


def round_rate(ops: list[Outcome]) -> float:
    """Pairs per second over the round's commands that passed their checks."""
    passed = [o for o in ops if not o.problems]
    wall = sum(o.wall for o in passed)
    return sum(o.pairs for o in passed) / wall if wall > 0 else 0.0


def run_rate(rounds: list[list[Outcome]]) -> float:
    """Pairs per second of one round with every command at its median rate over the run.

    The machine's speed drifts by tens of percent within a run and between
    runs, and the run scales this rate by its median probe (see probe).  The
    command's median is the same statistic as the probe's; on eight-run sets
    of check-claims and search-anneal it was steadier than each command's
    fastest round.
    """
    by_key: dict = {}
    for ops in rounds:
        for o in ops:
            if not o.problems:
                by_key.setdefault(o.key, []).append(o)
    pairs = wall = 0.0
    for ops in by_key.values():
        p = statistics.median(o.pairs for o in ops)
        r = statistics.median(o.pairs / o.wall for o in ops)
        pairs += p
        wall += p / r if r else min(o.wall for o in ops)
    return pairs / wall if wall > 0 else 0.0


# -- per-layer metrics from the traces -----------------------------------------

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
CLAIM_PHASES = {"diagonals": "checker.check_diagonals", "z_endpoints": "checker.check_z_endpoints", "chart": "checker.check_chart"}
# metric -> traced function it is computed from; absent when that function is gone
NEEDS = {
    "cli.self_s": "cli.main",
    "families.build_s": "families.build_family",
    "words.mul_calls": MUL,
    "sets.product_table_s": "sets.product_table",
    "sets.unique_products_s": "sets.unique_products",
    "sets.distinct_products": "sets.product_table",
    "sets.scan_bytes_per_pair": "sets.product_table",
    "sets.make_set_calls": "sets.make_set",
    "sets.make_set_s": "sets.make_set",
    "search.universe_s": "search.candidate_universe",
    "search.score_calls": "search.score",
    "search.score_s": "search.score",
    "search.loop_self_s": "search.run_search",
    **{f"checker.{phase}_s": fn for phase, fn in CLAIM_PHASES.items()},
    **{f"checker.{phase}.mul_calls": fn for phase, fn in CLAIM_PHASES.items()},
    "checker.covered_per_mul": "checker.check_chart",
}


def layer_metrics(traced_rounds: list[list[Outcome]]) -> tuple[dict, set]:
    """Per-round means of span times and counts; self time = span minus its child spans."""
    incl, self_t, calls, muls = {}, {}, {}, {}
    scans, startups, wrapped = [], [], None
    mul_calls = covered = 0
    for ops in traced_rounds:
        for op in ops:
            if op.trace is None:
                continue
            spans = op.trace["spans"]
            names = set(op.trace["wrapped"])
            wrapped = names if wrapped is None else wrapped & names
            startups.append(op.trace["startup_s"])
            mul_calls += op.trace["counts"].get(MUL, 0)
            child = [0.0] * len(spans)
            for name, parent, start, end, *_ in spans:
                if parent >= 0:
                    child[parent] += end - start
            for i, (name, parent, start, end, m0, m1, extra) in enumerate(spans):
                incl[name] = incl.get(name, 0.0) + (end - start)
                self_t[name] = self_t.get(name, 0.0) + (end - start - child[i])
                calls[name] = calls.get(name, 0) + 1
                muls[name] = muls.get(name, 0) + (m1 - m0)
                if extra:
                    scans.append(extra)
            if op.report and "covered_pairs" in op.report:
                covered += op.report["covered_pairs"]
    n = len(traced_rounds)
    m = {
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "cli.self_s": sum(t for name, t in self_t.items() if name.startswith("cli.")) / n,
        "families.build_s": incl.get("families.build_family", 0.0) / n,
        "words.mul_calls": mul_calls / n,
        "sets.product_table_s": self_t.get("sets.product_table", 0.0) / n,
        "sets.unique_products_s": self_t.get("sets.unique_products", 0.0) / n,
        "sets.make_set_calls": calls.get("sets.make_set", 0) / n,
        "sets.make_set_s": incl.get("sets.make_set", 0.0) / n,
        "search.universe_s": incl.get("search.candidate_universe", 0.0) / n,
        "search.score_calls": calls.get("search.score", 0) / n,
        "search.score_s": incl.get("search.score", 0.0) / n,
        "search.loop_self_s": self_t.get("search.run_search", 0.0) / n,
    }
    claim_muls = 0
    for phase, fn in CLAIM_PHASES.items():
        m[f"checker.{phase}_s"] = incl.get(fn, 0.0) / n
        m[f"checker.{phase}.mul_calls"] = muls.get(fn, 0) / n
        claim_muls += muls.get(fn, 0)
    m["checker.covered_per_mul"] = covered / claim_muls if claim_muls else 0.0
    absent = {metric for metric, fn in NEEDS.items() if fn not in (wrapped or set())}
    if scans and all("distinct" in s for s in scans):
        m["sets.distinct_products"] = sum(s["distinct"] for s in scans) / n
        largest = max(s["pairs"] for s in scans)
        m["sets.scan_bytes_per_pair"] = statistics.median(s["rss_delta_kb"] * 1024 / s["pairs"] for s in scans if s["pairs"] == largest)
    else:
        absent |= {"sets.distinct_products", "sets.scan_bytes_per_pair"}
    return m, absent


def micro_metrics(runner: Runner, wl: Workload, seed: int) -> tuple[dict, set]:
    out = runner.work / "micro.json"
    sources = [f"{k}:{path}" for k, path in wl.setup_files.values()]
    proc = runner.run([str(BENCH / "traced.py"), "micro", str(out), str(seed), *sources])
    result = _load_json(out)
    names = {"words.mul_ns", "words.inverse_ns", "words.from_word_ns"}
    if proc.rc != 0 or result is None:
        print(f"micro-timings unavailable (exit {proc.rc}): {proc.log[-300:]}")
        return {}, names
    return result, names - set(result)


# -- a run ---------------------------------------------------------------------


def make_workload(name: str, quick: bool = False) -> Workload:
    if name == "verify-scan":
        return Workload(name, points=QUICK_VERIFY_POINTS if quick else VERIFY_POINTS)
    if name == "check-claims":
        return Workload(name, points=QUICK_CHECK_POINTS if quick else CHECK_POINTS)
    return Workload(name, budget=QUICK_SEARCH_BUDGET if quick else SEARCH_BUDGET)


def report_ops(rounds: list[list[Outcome]]) -> tuple[int, int]:
    attempted = failed = 0
    for ops in rounds:
        for op in ops:
            attempted += 1
            if op.problems:
                failed += 1
                print(f"FAILED {op.name}: {'; '.join(op.problems)}")
    return attempted, failed


def run(workload: str, seed: int, seconds: int, trace: bool, runner: Runner) -> dict:
    rng = random.Random(seed)
    wl = make_workload(workload)
    setup_s, setup_rss, n_passes = setup(runner, wl, rng)
    print(f"workload {workload}, seed {seed}: setup {setup_s:.3f} s (median of {n_passes} passes)")
    if trace:
        t0 = time.perf_counter()
        plain = measure(runner, wl, rng, 0, traced=False)
        traced = measure(runner, wl, rng, seconds - (time.perf_counter() - t0), traced=True)
        rounds = plain + traced
    else:
        rounds = measure(runner, wl, rng, seconds, traced=False)
    attempted, failed = report_ops(rounds)
    for ops in rounds:
        for op in ops:
            print(f"  {op.name}: {op.wall:.3f} s, {op.rss_mb:.1f} MB{'' if not op.problems else ', FAILED'}")
    print(f"{workload}: {len(rounds)} round(s), {attempted} operations attempted, {failed} failed")
    if trace:
        metrics, absent = layer_metrics(traced)
        micro, micro_absent = micro_metrics(runner, wl, seed)
        metrics.update(micro)
        absent |= micro_absent
        plain_wall = sum(o.wall for o in plain[0])
        traced_wall = statistics.mean(sum(o.wall for o in ops) for ops in traced)
        metrics["trace.overhead_pct"] = (traced_wall / plain_wall - 1.0) * 100.0
        print(f"tracing overhead: {metrics['trace.overhead_pct']:.1f}% ({traced_wall:.2f} s traced against {plain_wall:.2f} s untraced per round)")
        if absent:
            print(f"absent (the traced function no longer exists; reported as 0): {sorted(absent)}")
        values = {name: float(metrics.get(name, 0.0)) for name in PER_LAYER}
    else:
        slowdown = runner.slowdown()
        rate = run_rate(rounds)
        values = {
            "pairs_per_s": rate * slowdown,
            "peak_rss_mb": max([setup_rss] + [o.rss_mb for ops in rounds for o in ops]),
            "setup_s": setup_s / slowdown,
        }
        median_rate = statistics.median(round_rate(ops) for ops in rounds)
        print(f"machine slowdown {slowdown:.4f} (median of {len(runner.probes)} probes against {PROBE_REF_S} s)")
        print(f"as measured: {rate:.6g} pairs/s at each command's median, {median_rate:.6g} pairs/s median over rounds, "
              f"setup {setup_s:.4g} s")
        if wl.kind == "search":
            print(f"search_iters_per_s = {values['pairs_per_s'] / SEARCH_SIZE**2:.1f} iterations/s (pairs_per_s / {SEARCH_SIZE**2})")
        else:
            print(f"{wl.kind}_pairs_per_s = {values['pairs_per_s']:.1f} pairs/s")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    return {
        # no operation is expected to fail: a failed output check, a wrong
        # exit code, a crash or a command never started makes the run incorrect
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()},
    }


# -- self-test -----------------------------------------------------------------


def self_test(runner: Runner) -> int:
    """Smallest points of every workload, the oracle, and negative controls of the checks."""
    problems = [f"oracle: {p}" for p in oracle.self_check()]
    rng = random.Random(1)
    reports = {}
    for name in WORKLOADS:
        wl = make_workload(name, quick=True)
        try:
            setup(runner, wl, rng)
        except SetupError as exc:
            problems.append(f"{name} setup: {exc}")
            continue
        for traced in (False, True):
            ops = measure(runner, wl, rng, 0, traced=traced)[0]
            problems += [f"{op.name}{' (traced)' if traced else ''}: {op.problems}" for op in ops if op.problems]
            reports.update({(wl.kind, op.name.split(" ", 1)[1]): op.report for op in ops})
        metrics, absent = layer_metrics([ops])
        busy = {"verify": "sets.product_table_s", "check": "checker.chart_s", "search": "search.score_s"}[wl.kind]
        if absent or not metrics[busy] > 0 or not metrics["words.mul_calls"] > 0:
            problems.append(f"{name}: traced metrics {busy}={metrics[busy]}, absent {sorted(absent)}")
        micro, absent = micro_metrics(runner, wl, 1)
        if absent or not all(v > 0 for v in micro.values()):
            problems.append(f"{name}: micro-timings {micro}, absent {sorted(absent)}")
        print(f"self-test {name}: done")
    # check agrees with verify on the check-claims points
    agree = Workload("verify-scan", points=QUICK_CHECK_POINTS)
    for op in measure(runner, agree, rng, 0, traced=False)[0]:
        chk = reports.get(("check", op.name.split(" ", 1)[1]))
        if op.problems or chk is None:
            problems.append(f"agreement {op.name}: {op.problems or 'no check report'}")
        elif (op.report["set_size"], op.report["unique_count"], op.report["total_factorizations"]) != (
            chk["set_size"], chk["unique_count"], chk["total_pairs"]):
            problems.append(f"check and verify disagree on {op.name}")
    problems += negative_controls(reports)
    for p in problems:
        print(f"SELF-TEST PROBLEM: {p}")
    print(f"self-test: {'FAILED' if problems else 'passed'}")
    return 1 if problems else 0


def negative_controls(reports: dict) -> list[str]:
    """Each doctored report must be rejected by its check."""
    problems = []
    good = Proc(0, 0.0, 0.0, "")
    verify = next((r for (kind, _), r in reports.items() if kind == "verify" and r), None)
    check = next((r for (kind, name), r in reports.items() if kind == "check" and "p=" in name and r), None)
    search = next((r for (kind, _), r in reports.items() if kind == "search" and r), None)
    if verify is None or check is None or search is None:
        return ["negative controls: no reports to doctor"]
    prm, budget = search["parameters"], search["parameters"]["budget"]
    wrong_score = dict(search, result=dict(search["result"], score=search["result"]["score"] + 1,
                                           restart_scores=[x + 1 for x in search["result"]["restart_scores"]]))
    point = (verify["parameters"]["k"], verify["parameters"]["p"], verify["parameters"]["q"])
    cpoint = (check["parameters"]["k"], check["parameters"]["p"], check["parameters"]["q"])
    bad = [
        ("verify with a unique product", judge_verify(good, dict(verify, unique_count=1), point)),
        ("verify exiting 1 on a clean report", judge_verify(Proc(1, 0.0, 0.0, ""), verify, point)),
        ("verify with a wrong product_size", judge_verify(good, verify, point, verify["product_size"] + 1)),
        ("scaled check exiting 0", judge_check(good, dict(check, exit_status=0), cpoint)),
        ("check with coverage below 1", judge_check(Proc(1, 0.0, 0.0, ""), dict(check, coverage=0.5), cpoint)),
        ("search with a wrong score", judge_search(Proc(1, 0.0, 0.0, ""), wrong_score, budget, prm["seed"], prm["symmetric"], search["result"]["elements"])),
    ]
    for label, found in bad:
        if not found:
            problems.append(f"negative control not rejected: {label}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="run every workload at its smallest points and check the checks")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nup" / "__init__.py").is_file():
        print(f"error: no nup sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    started = time.perf_counter()
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, started)
    try:
        if args.self_test:
            return self_test(runner)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), runner)
    except SetupError as exc:
        print(f"error: set-up failed, nothing measured: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
