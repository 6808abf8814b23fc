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

A move is scored without building its square.  A table of product ids over
the universe is filled lazily, one multiply per pair on first use, and the
counts of the current square are updated only on the pairs that meet the
removed and added elements; a rejected move is undone from the same ids.
The table drops its rows once it holds more than
max(2 * size, MAX_UNIVERSE_SIZE // len(universe)) of them, so its memory does
not grow with the budget.  score() stays the exact recheck of the answer.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from .families import build_base_set
from .sets import GroupSet, make_set, product_table
from .words import GroupParams, NormalForm, generator, identity

_NEIGHBORHOODS = ("swap-one", "mutate-one")
_INITS = ("random", "base")
# the largest universe a search builds; the ball grows by about 2.1x per unit
# of word length (30,255, 64,007 and 134,637 elements at k=3, lengths 11-13)
MAX_UNIVERSE_SIZE = 1 << 20


@dataclass(frozen=True)
class SearchConfig:
    k: int
    size: int
    word_length_cap: int = 5
    symmetric: bool = False
    seed: int = 0
    budget: int = 2000
    restarts: int = 1
    temp0: float = 2.0
    cooling: float = 0.995
    neighborhood: str = "swap-one"
    init: str = "random"

    def __post_init__(self):
        # values arrive from JSON config files too, so check their types
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
        if not (0.0 < self.cooling <= 1.0) or self.temp0 <= 0:
            raise ValueError("need 0 < cooling <= 1 and temp0 > 0")


@dataclass
class SearchResult:
    best: GroupSet
    score: int
    iterations: int
    seed: int
    restart_scores: list = field(default_factory=list)

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
    return sorted(seen, key=lambda w: w.sort_key())


def score(S: GroupSet) -> int:
    """Number of uniquely represented elements of S*S; 0 means success."""
    if len(S) == 0:
        raise ValueError("empty set")
    return product_table(S, S).unique_count()


def _restart_seed(master: int, r: int) -> int:
    # fixed splitting rule: one step of a 64-bit LCG per restart index
    return (master * 6364136223846793005 + 1442695040888963407 * (r + 1)) % (1 << 64)


class _State:
    """Fixed-size subset of the universe as a sorted tuple of indices."""

    def __init__(self, universe, inv_index, params, symmetric):
        self.universe = universe
        self.inv_index = inv_index  # universe index -> index of the inverse; None unless symmetric
        self.params = params
        self.symmetric = symmetric

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
            chosen.add(self._identity_index())
        while len(chosen) < size:
            i = rng.randrange(n)
            j = self.inv_index[i]
            if i == j or i in chosen:
                continue
            chosen.add(i)
            chosen.add(j)
        return tuple(sorted(chosen))

    def _identity_index(self) -> int:
        for i, w in enumerate(self.universe):
            if w.is_identity():
                return i
        raise RuntimeError("identity missing from universe")

    def neighbor(self, rng, idxs, kind, atoms, uindex) -> Optional[tuple]:
        current = set(idxs)
        if kind == "mutate-one":
            for _ in range(8):
                pos = rng.randrange(len(idxs))
                i = idxs[pos]
                w2 = self.universe[i] * atoms[rng.randrange(len(atoms))]
                i2 = uindex.get(w2)
                if i2 is None or i2 in current:
                    continue
                out = self._replace(idxs, i, i2)
                if out is not None:
                    return out
            kind = "swap-one"  # fall back when mutation keeps colliding
        for _ in range(64):
            pos = rng.randrange(len(idxs))
            i = idxs[pos]
            i2 = rng.randrange(len(self.universe))
            if i2 in current:
                continue
            out = self._replace(idxs, i, i2)
            if out is not None:
                return out
        return None

    def _replace(self, idxs, old, new) -> Optional[tuple]:
        current = set(idxs)
        if not self.symmetric:
            current.discard(old)
            current.add(new)
            return tuple(sorted(current))
        old_inv = self.inv_index[old]
        new_inv = self.inv_index[new]
        if old == old_inv:
            return None  # pinned identity in odd-size symmetric sets
        if new == new_inv or new_inv in current:
            return None
        current.discard(old)
        current.discard(old_inv)
        current.add(new)
        current.add(new_inv)
        if len(current) != len(idxs):
            return None
        return tuple(sorted(current))


class _Counts:
    """Multiplicities of a state's square, read from a lazily filled table of
    product ids: row i of the table is created on first use, and entry (i, j)
    is multiplied once, on first use."""

    def __init__(self, universe, size):
        self.universe = universe
        self.max_rows = max(2 * size, MAX_UNIVERSE_SIZE // len(universe))
        # universe index -> array of product ids, -1 until multiplied
        self.rows = defaultdict(lambda: array("i", [-1]) * len(universe))
        self.ids = {}  # product -> id
        self.counts = []  # id -> multiplicity in the current square
        self.once = 0  # products of multiplicity 1: the score
        self.last = ([], [])  # ids the last move removed and added

    def _block(self, rows_of, cols_of) -> list:
        """Product ids of rows_of x cols_of, multiplying the entries not yet filled."""
        rows = self.rows
        ids = [rows[i][j] for i in rows_of for j in cols_of]
        if -1 in ids:
            ids = [self._id(i, j) for i in rows_of for j in cols_of]
        return ids

    def _id(self, i, j) -> int:
        row = self.rows[i]
        if row[j] < 0:
            p = row[j] = self.ids.setdefault(self.universe[i] * self.universe[j], len(self.ids))
            if p == len(self.counts):
                self.counts.append(0)
        return row[j]

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
        self.counts = [0] * len(self.ids)
        self.once = 0
        self._count(self._block(idxs, idxs), 1)
        return self.once

    def apply(self, idxs, proposal) -> int:
        """Move the counts from the square of idxs to that of proposal."""
        if len(self.rows) > self.max_rows:
            self.reset(idxs)
        old, new = set(idxs), set(proposal)
        kept, removed, added = old & new, old - new, new - old
        gone = self._block(removed, old) + self._block(kept, removed)
        came = self._block(added, new) + self._block(kept, added)
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
    uindex = {w: i for i, w in enumerate(universe)}
    inv_index = [uindex[w.inverse()] for w in universe] if config.symmetric else None
    atoms = [generator(params, g, s) for g in ("a", "b") for s in (1, -1)]
    state = _State(universe, inv_index, params, config.symmetric)

    if len(universe) < config.size:
        raise ValueError(f"universe of {len(universe)} words cannot fill a set of size {config.size}")

    init_idxs = None
    if config.init == "base":
        T = build_base_set(config.k)
        if len(T) != config.size:
            raise ValueError(f"built initial set has size {len(T)}, configured size is {config.size}")
        missing = [w for w in T if w not in uindex]
        if missing:
            raise ValueError("initial set lies outside the word-length-capped universe; raise the cap")
        init_idxs = tuple(sorted(uindex[w] for w in T))

    counts = _Counts(universe, config.size)
    per_restart = config.budget // config.restarts
    best_overall = None  # (score, restart, iterations, idxs)
    restart_scores = []
    total_iters = 0
    for r in range(config.restarts):
        rng = random.Random(_restart_seed(config.seed, r))
        idxs = init_idxs if init_idxs is not None else state.random_state(rng, config.size)
        cur_score = counts.reset(idxs)
        best_score, best_idxs, best_at = cur_score, idxs, 0
        temp = config.temp0
        it = 0
        while it < per_restart and best_score > 0:
            it += 1
            proposal = state.neighbor(rng, idxs, config.neighborhood, atoms, uindex)
            if proposal is not None:
                new_score = counts.apply(idxs, proposal)
                delta = new_score - cur_score
                if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-9)):
                    idxs, cur_score = proposal, new_score
                    if cur_score < best_score:
                        best_score, best_idxs, best_at = cur_score, idxs, it
                else:
                    counts.undo()
            temp *= config.cooling
        total_iters += it
        restart_scores.append(best_score)
        key = (best_score, r)
        if best_overall is None or key < (best_overall[0], best_overall[1]):
            best_overall = (best_score, r, best_at, best_idxs)
    best_set = state.as_set(best_overall[3])
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
