"""Stochastic search for non-unique product sets: random restarts + annealing.

The candidate universe is the ball of elements within a bounded word length
of the identity in the Cayley graph on a, b, a^-1, b^-1, walked once per run.
A state is a fixed-size subset of the universe; its score is the number of
uniquely represented elements of its square, so score 0 means a non-unique
product set.  Moves replace one element (swap-one) or multiply one element by
a random generator (mutate-one); with the symmetric flag the state stays
closed under inversion and moves act on inverse-closed pairs.  Acceptance
follows simulated annealing with geometric cooling.  Runs are deterministic
functions of the seed; restarts draw their seeds from the master seed by a
fixed splitting rule and ties go to the lowest restart index.

A move is the pair (out, into) of the universe indices it removes and adds,
and it is scored without building its square or the next state.  A table of
product ids over the universe is filled lazily: the first use of entry
(i, j) names the products of row i with the whole b-run of column j from
one lookup of the square scan's product kernel (sets.RunProducts), which
numbers a product by its key (prefix id, n) and multiplies only once per
(row prefix, u shift and core, residue of n mod 2^k).  The counts of the
current square are updated only on the pairs that meet out and into; a
rejected move is undone from the same ids, and only an accepted one is
sorted into the next state.  A memo of the state names an element times a
generator, one multiply per (element, generator); mutate-one moves draw
from it, and the table steps through it by b^-1 and b to find a b-run.
The table drops its rows, ids and memos once it holds more than
max(2 * size, MAX_UNIVERSE_SIZE // len(universe)) of them, so its memory does
not grow with the budget.  score() stays the exact recheck of the answer;
past the table's 64-bit b-coordinates it multiplies every pair.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import Counter, defaultdict, namedtuple
from typing import NamedTuple, Optional

from .families import FamilySpec, build_family
from .sets import GroupSet, RunProducts, b_key, make_set, product_table
from .words import GroupParams, NormalForm, generator, identity

_NEIGHBORHOODS = ("swap-one", "mutate-one")
_INITS = ("random", "base")
# the largest universe a search builds; the ball grows by about 2.1x per unit
# of word length (30,255, 64,007 and 134,637 elements at k=3, lengths 11-13)
MAX_UNIVERSE_SIZE = 1 << 20


class SearchConfig(
    namedtuple(
        "SearchConfig",
        "k size word_length_cap symmetric seed budget restarts temp0 cooling neighborhood init",
        # the defaults of the fields from word_length_cap on
        defaults=(5, False, 0, 2000, 1, 2.0, 0.995, "swap-one", "random"),
    )
):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        # an unknown field is a TypeError here; values arrive from JSON config
        # files too, so check their types
        self = super().__new__(cls, *args, **kwargs)
        for name in ("k", "size", "word_length_cap", "seed", "budget", "restarts"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if not isinstance(self.symmetric, bool):
            raise ValueError(f"symmetric must be true or false, not {self.symmetric!r}")
        for name in ("temp0", "cooling"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, not {value!r}")
        GroupParams(self.k)
        if self.size < 2:
            raise ValueError("set size must be >= 2")
        if self.budget < 1:
            raise ValueError("iteration budget must be >= 1")
        if self.word_length_cap < 1:
            raise ValueError("word length cap must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.restarts > self.budget:
            raise ValueError(f"restarts ({self.restarts}) must not exceed budget ({self.budget})")
        if self.neighborhood not in _NEIGHBORHOODS:
            raise ValueError(f"neighborhood must be one of {_NEIGHBORHOODS}")
        if self.init not in _INITS:
            raise ValueError(f"init must be one of {_INITS}")
        if self.init == "base" and self.symmetric:
            raise ValueError("init 'base' and symmetric exclude each other: the base set T(k) is not closed under inversion")
        if not (0.0 < self.cooling <= 1.0) or self.temp0 <= 0:
            raise ValueError("need 0 < cooling <= 1 and temp0 > 0")
        return self


class SearchResult(NamedTuple):
    best: GroupSet
    score: int
    iterations: int
    seed: int
    restart_scores: list

    def as_dict(self) -> dict:
        return {
            "score": self.score,
            "iterations": self.iterations,
            "seed": self.seed,
            "size": len(self.best),
            "restart_scores": self.restart_scores,
            "elements": [str(w) for w in self.best],
        }


def candidate_universe(params: GroupParams, length_cap: int) -> list[NormalForm]:
    """Every element of word length <= length_cap, in canonical order.

    A breadth-first walk of the Cayley graph: each level multiplies only the
    elements first seen at the level before.  A ball of more than
    MAX_UNIVERSE_SIZE elements is refused with a ValueError."""
    atoms = [generator(params, g, s) for g in ("a", "b") for s in (1, -1)]
    seen = {identity(params)}
    frontier = list(seen)
    for _ in range(length_cap):
        nxt = []
        for w in frontier:
            for atom in atoms:
                w2 = w * atom
                if w2 not in seen:
                    seen.add(w2)
                    nxt.append(w2)
            if len(seen) > MAX_UNIVERSE_SIZE:
                raise ValueError(f"the universe of word length <= {length_cap} holds more than {MAX_UNIVERSE_SIZE} elements; lower the length cap")
        frontier = nxt
    return sorted(seen)


def score(S: GroupSet) -> int:
    """Number of uniquely represented elements of S*S; 0 means success."""
    if len(S) == 0:
        raise ValueError("empty set")
    try:
        return product_table(S, S).unique_count()
    except ValueError:  # the table's only refusal of one GroupSet's square: an n past 64 bits, from k = 62 on
        return sum(c == 1 for c in Counter(x * y for x in S for y in S).values())


def _restart_seed(master: int, r: int) -> int:
    # fixed splitting rule: one step of a 64-bit LCG per restart index
    return (master * 6364136223846793005 + 1442695040888963407 * (r + 1)) % (1 << 64)


class _State:
    """Fixed-size subsets of the universe, each a sorted tuple of indices.

    A move is (out, into): the indices it removes and those it adds, one each,
    or one inverse pair each when symmetric."""

    def __init__(self, universe, params, symmetric):
        self.universe = universe
        self.uindex = {w: i for i, w in enumerate(universe)}
        # universe index -> index of the inverse; None unless symmetric
        self.inv_index = [self.uindex[w.inverse()] for w in universe] if symmetric else None
        self.params = params
        self.symmetric = symmetric
        self.atoms = [generator(params, g, s) for g in ("a", "b") for s in (1, -1)]
        self.identity = self.uindex[identity(params)]
        self.steps = {}  # 4 * i + atom -> step(i, atom), at most 4 * |universe| entries

    def step(self, i, atom) -> Optional[int]:
        """The universe index of universe[i] times atom 0..3 (a, a^-1, b,
        b^-1), None outside the universe; one multiply per (i, atom)."""
        j = self.steps.get(4 * i + atom, -1)
        if j == -1:
            j = self.steps[4 * i + atom] = self.uindex.get(self.universe[i] * self.atoms[atom])
        return j

    def as_set(self, idxs) -> GroupSet:
        return make_set(self.params, [self.universe[i] for i in idxs])

    def random_state(self, rng, size) -> tuple:
        chosen: set[int] = set()
        n = len(self.universe)
        if not self.symmetric:
            while len(chosen) < size:
                chosen.add(rng.randrange(n))
            return tuple(sorted(chosen))
        if size % 2 == 1:
            # only the identity is self-inverse, so odd symmetric sets pin it
            chosen.add(self.identity)
        while len(chosen) < size:
            i = rng.randrange(n)
            j = self.inv_index[i]
            if i == j or i in chosen:
                continue
            chosen.add(i)
            chosen.add(j)
        return tuple(sorted(chosen))

    def neighbor(self, rng, idxs, kind) -> Optional[tuple]:
        """A random move (out, into) from idxs, or None when none was found."""
        current = set(idxs)
        if kind == "mutate-one":
            for _ in range(8):
                i = idxs[rng.randrange(len(idxs))]
                i2 = self.step(i, rng.randrange(4))
                if i2 is None or i2 in current:
                    continue
                move = self._move(current, i, i2)
                if move is not None:
                    return move
            kind = "swap-one"  # fall back when mutation keeps colliding
        for _ in range(64):
            i = idxs[rng.randrange(len(idxs))]
            i2 = rng.randrange(len(self.universe))
            if i2 in current:
                continue
            move = self._move(current, i, i2)
            if move is not None:
                return move
        return None

    def _move(self, current, old, new) -> Optional[tuple]:
        """The move that replaces old in current by new, which current lacks;
        None when a symmetric move would break inverse closure or the size."""
        if not self.symmetric:
            return (old,), (new,)
        old_inv, new_inv = self.inv_index[old], self.inv_index[new]
        if old == old_inv:
            return None  # pinned identity in odd-size symmetric sets
        if new == new_inv or new_inv in current or old_inv not in current:
            return None
        return (old, old_inv), (new, new_inv)


class _Counts:
    """Multiplicities of a state's square, read from a lazily filled table of
    product ids: row i of the table is created on first use, and on the
    first use of entry (i, j) the whole b-run of column j in row i, found by
    the state's steps, is named from one lookup of the product kernel."""

    def __init__(self, state, size):
        self.state = state
        self.universe = universe = state.universe
        self.max_rows = max(2 * size, MAX_UNIVERSE_SIZE // len(universe))
        # universe index -> array of product ids, -1 until named
        self.rows = defaultdict(lambda: array("i", [-1]) * len(universe))
        self.kernel = RunProducts(universe[0].k)
        self.run_of = {}  # column -> (columns of its b-run, the head's splits), found on first use
        self.memos = {}  # row prefix -> its product memo
        self.ids = {}  # product key (prefix id, n) -> id
        self.counts = []  # id -> multiplicity in the current square
        self.once = 0  # products of multiplicity 1: the score
        self.last = ([], [])  # ids the last move removed and added

    def _block(self, rows_of, cols_of) -> list:
        """Product ids of rows_of x cols_of, naming the entries not yet filled."""
        rows = self.rows
        ids = [rows[i][j] for i in rows_of for j in cols_of]
        if -1 in ids:
            for i in rows_of:
                self._fill(i, rows[i], cols_of)
            ids = [rows[i][j] for i in rows_of for j in cols_of]
        return ids

    def _run(self, j) -> tuple:
        """(columns, splits) of the b-run of column j: the universe indices of
        its elements in order, stepped to by b^-1 from j to the run's head and
        then by b to its end, and the head's splits."""
        run = self.run_of.get(j)
        if run is None:
            step = self.state.step
            while (c := step(j, 3)) is not None:
                j = c
            cols = [j]
            while (c := step(cols[-1], 2)) is not None:
                cols.append(c)
            run = (cols, self.kernel.split(self.universe[j]))
            for c in cols:
                self.run_of[c] = run
        return run

    def _fill(self, i, row, cols) -> None:
        """Name the entries of cols still empty in row i: each names the
        products of row i with the whole b-run of its column."""
        x = None
        for j in cols:
            if row[j] >= 0:
                continue
            if x is None:
                x = self.universe[i]
                prefix, n = b_key(x)
                memo = self.memos.setdefault(prefix, {})
                parity = (sum(x.syllables) + x.beta) & 1
                ids = self.ids
            run, splits = self._run(j)
            pid, n0 = self.kernel.key(memo, x.u, x.alpha, x.syllables, n, splits[parity])
            for t, j2 in enumerate(run):
                row[j2] = ids.setdefault((pid, n0 + t), len(ids))
        if x is not None and len(ids) > len(self.counts):
            self.counts += [0] * (len(ids) - len(self.counts))

    def _count(self, ids, step) -> None:
        """Add step (+1 or -1) to the multiplicity of each id."""
        counts, once = self.counts, self.once
        for p in ids:
            c = counts[p] = counts[p] + step
            if c == 1:
                once += 1
            elif c == step + 1:
                once -= 1
        self.once = once

    def reset(self, idxs) -> int:
        """Count the square of idxs from scratch; the table is dropped first
        when it holds more than max_rows rows."""
        if len(self.rows) > self.max_rows:
            self.rows.clear()
            self.ids = {}
            self.memos = {}
            self.kernel.prefix_id = {}
        self.counts = [0] * len(self.ids)
        self.once = 0
        self._count(self._block(idxs, idxs), 1)
        return self.once

    def apply(self, idxs, out, into) -> int:
        """Move the counts from the square of idxs to that of the state the
        move (out, into) makes of it."""
        if len(self.rows) > self.max_rows:
            self.reset(idxs)
        kept = [i for i in idxs if i not in out]
        gone = self._block(out, idxs) + self._block(kept, out)
        came = self._block(into, kept + list(into)) + self._block(kept, into)
        self._count(gone, -1)
        self._count(came, 1)
        self.last = (gone, came)
        return self.once

    def undo(self) -> int:
        """Return the counts to the state before the last apply."""
        gone, came = self.last
        self._count(gone, 1)
        self._count(came, -1)
        return self.once


def run_search(config: SearchConfig) -> SearchResult:
    params = GroupParams(config.k)
    universe = candidate_universe(params, config.word_length_cap)
    state = _State(universe, params, config.symmetric)

    if len(universe) < config.size:
        raise ValueError(f"universe of {len(universe)} words cannot fill a set of size {config.size}")

    init_idxs = None
    if config.init == "base":
        T = build_family(FamilySpec(config.k))
        if len(T) != config.size:
            raise ValueError(f"built initial set has size {len(T)}, configured size is {config.size}")
        if any(w not in state.uindex for w in T):
            raise ValueError("initial set lies outside the word-length-capped universe; raise the cap")
        init_idxs = tuple(sorted(state.uindex[w] for w in T))

    counts = _Counts(state, config.size)
    per_restart = config.budget // config.restarts
    best_overall = None  # (score, idxs) of the first restart to reach the lowest score
    restart_scores = []
    total_iters = 0
    for r in range(config.restarts):
        rng = random.Random(_restart_seed(config.seed, r))
        idxs = init_idxs if init_idxs is not None else state.random_state(rng, config.size)
        cur_score = counts.reset(idxs)
        best_score, best_idxs = cur_score, idxs
        temp = config.temp0
        it = 0
        while it < per_restart and best_score > 0:
            it += 1
            move = state.neighbor(rng, idxs, config.neighborhood)
            if move is not None:
                out, into = move
                new_score = counts.apply(idxs, out, into)
                delta = new_score - cur_score
                if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-9)):
                    idxs = tuple(sorted([i for i in idxs if i not in out] + list(into)))
                    cur_score = new_score
                    if cur_score < best_score:
                        best_score, best_idxs = cur_score, idxs
                else:
                    counts.undo()
            temp *= config.cooling
        total_iters += it
        restart_scores.append(best_score)
        if best_overall is None or best_score < best_overall[0]:
            best_overall = (best_score, best_idxs)
    best_set = state.as_set(best_overall[1])
    final_score = score(best_set)  # recomputed exactly on the final answer
    if final_score != best_overall[0]:
        raise AssertionError("recomputed score disagrees with search bookkeeping")
    return SearchResult(
        best=best_set,
        score=final_score,
        iterations=total_iters,
        seed=config.seed,
        restart_scores=restart_scores,
    )
