"""Child process of the benchmark: a traced nup command, or element micro-timings.

    python3 bench/traced.py trace OUT.json -- <nup arguments>
    python3 bench/traced.py micro OUT.json SEED K:FILE [K:FILE ...]

``trace`` imports nup.cli (timing the import), wraps every public function of
the modules families, sets, checker, search and cli in each module that binds
it, counts NormalForm multiplies, runs ``nup.cli.main`` on the arguments and
writes the spans and counts to OUT.json.  It exits with the command's code.

``micro`` times NormalForm multiply, inverse and from_word, untraced, on
element pairs drawn with SEED from the given set files.

The package is imported from ``src`` of the checkout that holds this file.
"""

from __future__ import annotations

import functools
import inspect
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANNED_LAYERS = ("families", "sets", "checker", "search", "cli")
# spans that also record the process's peak RSS before and after the call
RSS_SPANS = {"sets.product_table"}
MUL = "words.NormalForm.__mul__"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans and counters kept in memory; one span per traced call.

    A span is [name, parent span index (-1 at top), start, end, multiplies
    before, multiplies after, extra], times from perf_counter.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = {MUL: 0}
        self.wrapped: list[str] = []

    def span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        rss = name in RSS_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, counts[MUL], 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rss_before = _maxrss_kb() if rss else 0
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                rec[5] = counts[MUL]
                stack.pop()
            if rss:
                rec[6] = _scan_extra(args, result, rss_before)
            return result

        return traced

    def count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, layers: dict, namespaces: list) -> None:
        """Span the public functions of every spanned layer in each namespace
        that binds them, and count NormalForm multiplies."""
        for layer in SPANNED_LAYERS:
            module = layers.get(layer)
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.span_wrapper(name, obj)
                self.wrapped.append(name)
                for namespace in namespaces:
                    for other_attr, other_obj in list(vars(namespace).items()):
                        if other_obj is obj:
                            setattr(namespace, other_attr, wrapper)
        cls = getattr(layers.get("words"), "NormalForm", None)
        fn = getattr(cls, "__mul__", None)
        if fn is not None:
            cls.__mul__ = self.count_wrapper(MUL, fn)
            self.wrapped.append(MUL)


def _scan_extra(args, result, rss_before) -> dict:
    extra = {"rss_delta_kb": _maxrss_kb() - rss_before}
    try:
        extra["pairs"] = len(args[0]) * len(args[1])
        extra["distinct"] = len(result)
    except (TypeError, IndexError):
        pass  # a changed signature leaves these metrics absent
    return extra


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import nup.cli

    startup = time.perf_counter() - t0
    if not Path(nup.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"nup imported from {nup.cli.__file__}, not from {ROOT / 'src'}")
    return startup


def trace(out_path: str, argv: list[str]) -> int:
    startup = _import_package()
    import importlib

    layers = ("words", "families", "sets", "checker", "search", "cli")
    modules = {}
    for layer in layers:
        try:
            modules[layer] = importlib.import_module(f"nup.{layer}")
        except ImportError:
            continue  # a removed module leaves its metrics absent
    tracer = Tracer()
    tracer.install(modules, [sys.modules["nup"], *modules.values()])
    rc = 2
    try:
        rc = modules["cli"].main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "rc": rc,
                    "startup_s": startup,
                    "wrapped": tracer.wrapped,
                    "counts": tracer.counts,
                    "spans": tracer.spans,
                },
                fh,
            )
    return rc


def _per_op_ns(fn, items, repeats: int = 5) -> float:
    laps = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn(items)
        laps.append((time.perf_counter_ns() - t0) / len(items))
    return statistics.median(laps)


def micro(out_path: str, seed: int, sources: list[str], n_pairs: int = 2000) -> int:
    _import_package()
    from nup.sets import load_set_file
    from nup.words import GroupParams, from_word

    rng = random.Random(seed)
    sets = []
    for source in sources:
        k, _, path = source.partition(":")
        params = GroupParams(int(k))
        sets.append((params, load_set_file(path, params).elements))
    pairs, singles, words = [], [], []
    for _ in range(n_pairs):
        params, elems = sets[rng.randrange(len(sets))]
        x, y = elems[rng.randrange(len(elems))], elems[rng.randrange(len(elems))]
        pairs.append((x, y))
        singles.append(x)
        words.append((x.tokens(), params))

    def mul_all(items):
        for x, y in items:
            x * y

    def inverse_all(items):
        for x in items:
            x.inverse()

    def from_word_all(items):
        for tokens, params in items:
            from_word(tokens, params)

    result = {
        "words.mul_ns": _per_op_ns(mul_all, pairs),
        "words.inverse_ns": _per_op_ns(inverse_all, singles),
        "words.from_word_ns": _per_op_ns(from_word_all, words),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "trace" and argv[2] == "--":
        return trace(argv[1], argv[3:])
    if len(argv) >= 4 and argv[0] == "micro":
        return micro(argv[1], int(argv[2]), argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
