"""Finite subsets of the group and the factorizations of their products.

A GroupSet is a strictly increasing (hence duplicate-free) tuple of
NormalForms in the canonical order, which is tuple order, so it finds an
element by bisection; it may carry one label per element.  A RunSet is a
set given by its b-runs alone.  A FactorizationTable counts the distinct and
the uniquely represented products of X*Y, and names the index pair (i, j)
of each unique product, the witness that a set fails.

The table rests on one fact about normal forms.  Right multiplication by b^e
leaves the prefix (u, alpha, syllables) fixed and adds e to the integer

    n = s * 2^k * v + beta,    s = -1 if alpha + len(syllables) is odd, else +1,

so (prefix, n) names an element exactly.  Y therefore splits into maximal
b-runs y, y*b, ..., y*b^(L-1), and x times such a run is the interval
[n0, n0 + L) of a single prefix, the key of x times the run's head h.

That key needs few multiplies.  Split h as words,

    h = a^(2u_h) * b^(c_h) * r_h * b^(beta_h),

with c_h = M*v_h, plus s_1 when alpha_h = 0, and r_h the a-letter core of h
(empty for a power of b).  Then x * h = x' * r_h * b^(beta_h) with
x' = x * a^(2u_h) * b^(c_h), whose key is x's with u moved by -/+ u_h (by the
parity of x's b letters) and n by c_h.  Only x' * r_h is a NormalForm
multiply, and the relator a b^M a^-1 b^M lets many rows share it: b^(M w)
passes r_h, its sign flipped by each letter a of r_h.  So when x' has
n' = M*w + rho with 0 <= rho < M,

    x' * r_h = (E(rho) * r_h) * b^(+-M w),

where E(rho) is the element of x''s prefix whose n is rho, and the key of
x' * r_h is that of E(rho) * r_h with n moved by +-M w.  RunProducts, the
kernel that the scan and the search share, multiplies once per (row prefix
(u, alpha, syllables), u shift and core, rho), however many rows and values
of v the row prefix has: 4^(k+1) + 2^(k+1) multiplies at base k, and as many
for the scaled sets T(1, q) at every q.

The table stores the square once, as weighted intervals read from the
b-runs of both factors: one triple (prefix id, n0, run length, weight) per
interval that rows of one row prefix meet, with nothing per row or pair.  One
sweep over each prefix's triples, run as the table is built, counts the
distinct and the unique products.  Only a set that fails has a unique
product; its witnesses come from a second walk of the square, which keys
nothing and expands the triples of the prefixes holding one into their pairs.

Set file format: UTF-8 text, one word per line in the word grammar, "#"
starts a comment, blank lines are ignored, and an optional trailing
"| label" annotates the element.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left, bisect_right
from itertools import pairwise
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .words import INTEGER, GroupParams, NormalForm, from_string


class GroupSet:
    __slots__ = ("params", "elements", "labels", "duplicates_removed")

    def __init__(self, params: GroupParams, elements: tuple, labels: Optional[tuple], duplicates_removed: int):
        self.params = params
        self.elements = elements
        self.labels = labels
        self.duplicates_removed = duplicates_removed

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __contains__(self, w):
        return self.index_of(w) is not None

    def __eq__(self, other):
        if not isinstance(other, GroupSet):
            return NotImplemented
        return self.params == other.params and self.elements == other.elements

    def __repr__(self):
        return f"GroupSet(k={self.params.k}, size={len(self.elements)})"

    def index_of(self, w) -> Optional[int]:
        """The position of w, found by bisection; None when w is not an element."""
        i = bisect_left(self.elements, w) if isinstance(w, NormalForm) else len(self.elements)
        return i if i < len(self.elements) and self.elements[i] == w else None

    def b_runs(self) -> list[tuple[NormalForm, list[int]]]:
        """The maximal b-runs as (head, positions of the run's elements)."""
        return [(self.elements[run[0]], run) for run in b_runs(self.elements)]


class RunSet:
    """A set as its b-runs (head, indices): the elements head, head*b, ...,
    numbered by indices and never built, scanned as a GroupSet is."""

    __slots__ = ("params", "runs")

    def __init__(self, params: GroupParams, runs: list[tuple[NormalForm, Sequence[int]]]):
        self.params = params
        self.runs = runs

    def __len__(self):
        return sum(len(ix) for _, ix in self.runs)

    def b_runs(self) -> list[tuple[NormalForm, Sequence[int]]]:
        return self.runs


def make_set(params: GroupParams, elements: Iterable[NormalForm], labels: Optional[Sequence] = None) -> GroupSet:
    """Sort and deduplicate; the number of duplicates removed is recorded.

    A repeated element keeps the label of its first occurrence.  Callers that
    rely on distinctness assert ``duplicates_removed == 0``.
    """
    elems = list(elements)
    for w in elems:
        if w.k != params.k:
            raise ValueError(f"element of group k={w.k} in a set over k={params.k}")
    if labels is not None:
        labels = list(labels)
        if len(labels) != len(elems):
            raise ValueError(f"{len(labels)} labels for {len(elems)} elements")
    pairs = sorted(zip(elems, labels or [None] * len(elems)), key=lambda t: t[0])
    out_e: list[NormalForm] = []
    out_l: list = []
    for w, lab in pairs:
        if not out_e or out_e[-1] != w:
            out_e.append(w)
            out_l.append(lab)
    return GroupSet(params, tuple(out_e), None if labels is None else tuple(out_l), len(elems) - len(out_e))


def b_key(w: NormalForm) -> tuple[tuple, int]:
    """The b-coordinates (prefix, n) of w; w * b^e has (prefix, n + e)."""
    syl = w.syllables
    n = w.v << w.k
    if (w.alpha + len(syl)) & 1:
        n = -n
    return (w.u, w.alpha, syl), n + w.beta


def _from_b_key(k: int, prefix: tuple, n: int) -> NormalForm:
    u, alpha, syl = prefix
    beta = n & ((1 << k) - 1)
    v = (n - beta) >> k
    if (alpha + len(syl)) & 1:
        v = -v
    return NormalForm._make(k, u, v, alpha, syl, beta)


def b_runs(elements: Sequence[NormalForm]) -> list[list[int]]:
    """Indices of distinct elements split into maximal runs y, y*b, y*b^2, ...,
    in (prefix, n) order."""
    runs: list[list[int]] = []
    prev = None
    for (prefix, n), j in sorted((b_key(w), j) for j, w in enumerate(elements)):
        if prev == (prefix, n - 1):
            runs[-1].append(j)
        else:
            runs.append([j])
        prev = (prefix, n)
    return runs


class RunProducts:
    """The keys of x * h for b-run heads h: the product kernel that the
    square scan and the search share.

    split(h) splits a head, as a word, into h = a^(2u_h) b^(c_h) r_h
    b^(beta_h) (see the module docstring), once for the rows with an even
    and once for those with an odd number of b letters: each split is
    (core id << k, mask, c_h, beta_h, flip, u shift, r_h), where the core id
    numbers (u shift, r_h), the u shift is +u_h or -u_h, r_h is None for a
    power of b, rho = (n + c_h) & mask (mask is 2^k - 1, or 0 when r_h is
    None), and flip is set when r_h has an odd number of letters a.  key()
    multiplies once per (row prefix, core id, rho), in a memo of the row
    prefix that the caller owns.  multiplies counts the multiplies made, and
    prefix_id numbers the prefixes of the products in the order they are
    first met.
    """

    __slots__ = ("k", "core_ids", "prefix_id", "multiplies")

    def __init__(self, k: int):
        self.k = k
        self.core_ids: dict = {}
        self.prefix_id: dict = {}
        self.multiplies = 0

    def split(self, h: NormalForm) -> tuple[tuple, tuple]:
        """h's splits for the rows with an even and with an odd number of b letters."""
        k = self.k
        syl, c_h = h.syllables, h.v << k
        if not h.alpha and syl:
            c_h += syl[0]
            syl = syl[1:]
        core = NormalForm._make(k, 0, 0, 1, syl, 0) if h.alpha or h.syllables else None
        # r_h has 1 + len(syl) letters a, and each flips a passing b^M
        flip = core is not None and not len(syl) & 1
        ids, mask = self.core_ids, (1 << k) - 1 if core is not None else 0
        return tuple((ids.setdefault((du, core), len(ids)) << k, mask, c_h, h.beta, flip, du, core) for du in (h.u, -h.u))

    def key(self, memo: dict, u: int, alpha: int, syl: tuple, n: int, head: tuple) -> tuple[int, int]:
        """The key (prefix id, n) of x * h, where x has the b-coordinates
        ((u, alpha, syl), n) and head is h's split for x's parity; memo is
        the product memo of the row prefix (u, alpha, syl)."""
        core_key, mask, c_h, beta, flip, du, core = head
        # x' = x * a^(2u_h) * b^(c_h) has the prefix (u + du, alpha, syl)
        # and n + c_h = M w + rho, so x' * r_h = (E(rho) * r_h) * b^(+-M w)
        # with E(rho) the element of x''s prefix whose n is rho
        nz = n + c_h
        rho = nz & mask
        hit = memo.get(core_key + rho)
        if hit is None:
            if core is None:
                prefix, zn = (u + du, alpha, syl), 0
            else:
                prefix, zn = b_key(NormalForm._make(self.k, u + du, 0, alpha, syl, rho) * core)
                self.multiplies += 1
            hit = memo[core_key + rho] = self.prefix_id.setdefault(prefix, len(self.prefix_id)), zn
        shift = nz - rho
        return hit[0], hit[1] + beta + (-shift if flip else shift)


class FactorizationTable:
    """The counts of the product set X*Y, from weighted intervals.

    X and Y are GroupSets or RunSets, read as disjoint b-runs (head, indices)
    of rows (of X) and columns (of Y).  X[i] times a run of Y is the interval
    [n0, n0 + run length) of one product prefix, whose key RunProducts gives
    (see the module docstring) from nz = n + c_h and the head's class (core
    id, beta_h, run length) alone.  So the scan visits no (row, run) pair:
    per row prefix it convolves its row runs, cut into step-2 intervals of n
    per parity (which picks the heads' split), with each class's c_h, and
    makes one key and one triple per (class, nz) of positive weight, one per
    distinct (prefix, n0, run length) in the paper's sets.

    Triple t has prefix id triple_pid[t], start triple_n0[t], length
    triple_len[t] and weight triple_weight[t] (the (row, run) pairs that meet
    it); the triples of prefix pid are linked from last_triple[pid] through
    triple_prev, ending at -1.  All are flat arrays of machine ints; a
    product beyond 64 bits is refused with a ValueError.  The constructor
    ends with the one sweep of the triples, and len, unique_count and
    counters read the counts it stored.  Nothing is kept per row or pair: a
    row prefix's product memo lives only while its rows are scanned, and
    uniques() walks the square again for a failing set's witnesses.
    """

    __slots__ = (
        "k", "runs", "rows", "cols", "prefixes", "multiplies",
        "triple_pid", "triple_n0", "triple_len", "triple_weight", "last_triple", "triple_prev",
        "_kernel", "_factors", "_counts",
    )

    def __init__(self, x: GroupSet | RunSet, y: GroupSet | RunSet):
        self.k = k = x.params.k
        self.rows, self.cols = len(x), len(y)
        cols = y.b_runs()
        rows = cols if x is y else x.b_runs()
        self.runs = [ix for _, ix in cols]
        self._kernel = kernel = RunProducts(k)
        product_key = kernel.key
        # for rows with an even and an odd number of b letters, (c_h, run
        # indices) of each class, named by its split with c_h = 0 (the key of
        # (n, c_h) is that of (n + c_h, 0)) and its run length
        c_of: tuple = ({}, {})
        for head, ix in cols:
            for cs, (core_key, mask, c_h, beta, flip, du, core) in zip(c_of, kernel.split(head)):
                cs.setdefault(((core_key, mask, 0, beta, flip, du, core), len(ix)), []).append((c_h, ix))
        rows_of: dict = {}  # row prefix -> its row runs (n0, indices)
        for head, ix in rows:
            prefix, n0 = b_key(head)
            rows_of.setdefault(prefix, []).append((n0, ix))
        self._factors = rows_of, c_of  # the walk's input, for uniques()
        self.last_triple, self.triple_prev = last, prev = array("i"), array("i")
        self.triple_pid, self.triple_n0, self.triple_len, self.triple_weight = arrays = [array(c) for c in "iqii"]
        new_pid, new_n0, new_len, new_weight = (a.append for a in arrays)
        try:
            for (u, alpha, syl), row_runs in rows_of.items():
                memo: dict = {}  # the row prefix's product memo, dropped after its rows
                for (head, length), w, start, end in self._walk((u, alpha, syl), row_runs):
                    for nz in range(start, end, 2):
                        pid, n0 = product_key(memo, u, alpha, syl, nz, head)
                        if pid == len(last):
                            last.append(-1)
                        prev.append(last[pid])
                        last[pid] = len(prev) - 1
                        new_pid(pid)
                        new_n0(n0)
                        new_len(length)
                        new_weight(w)
        except OverflowError:
            raise ValueError("a product's b-coordinate n does not fit in 64 bits") from None
        self.prefixes = list(kernel.prefix_id)
        self.multiplies = kernel.multiplies
        self._counts = self._sweep()

    def _walk(self, prefix: tuple, row_runs: list):
        """The walk of the square at a row prefix, its row runs (n0, indices) sorted in place: (class, w,
        start, end) per step-2 range [start, end) of nz met by w = #{(n, c_h) : n + c_h = nz} > 0, in one order."""
        syl_sum = sum(prefix[2])
        # the rows' n as step-2 intervals [a, b], per parity
        spans: tuple = ([], [])
        row_runs.sort(key=itemgetter(0))
        for (n0, ix), before in zip(row_runs, [None] + row_runs):
            if before and n0 < before[0] + len(before[1]):
                raise ValueError(f"two row b-runs share the element {_from_b_key(self.k, prefix, n0)}")
            end = n0 + len(ix) - 1
            for a in range(n0, min(n0 + 1, end) + 1):
                side, b = spans[(syl_sum + a) & 1], end - ((end - a) & 1)
                if side and side[-1][1] + 2 == a:
                    side[-1][1] = b
                else:
                    side.append([a, b])
        # +1 at a + c and -1 at b + c + 2 per interval and c, on the lattice
        # of nz's parity, with the rows of both parities in one sum
        events: dict = {}
        for side, cs in zip(spans, self._factors[1]):
            for cls, runs in cs.items() if side else ():
                for c, _ in runs:
                    lattice = events.setdefault((cls, (side[0][0] + c) & 1), {})
                    for a, b in side:
                        lattice[a + c] = lattice.get(a + c, 0) + 1
                        lattice[b + c + 2] = lattice.get(b + c + 2, 0) - 1
        for (cls, _), lattice in events.items():
            w = 0
            for start, end in pairwise(sorted(lattice)):
                w += lattice[start]
                if w:
                    yield cls, w, start, end

    def _sweep(self) -> tuple[int, int, set]:
        """(distinct products, unique products, ids of the prefixes holding a
        unique product), from one sweep of every prefix's triples."""
        n0, lens, weights, prev_of = self.triple_n0, self.triple_len, self.triple_weight, self.triple_prev
        # an event is pos << shift | half + the change of the count there,
        # and every weight is below half, so the ints sort by position;
        # they stay small, so the sort compares them fast
        shift = max(weights, default=0).bit_length() + 1
        half, low = 1 << (shift - 1), (1 << shift) - 1
        distinct = unique = 0
        pids = set()
        for pid, t in enumerate(self.last_triple):
            events = []
            add = events.append
            while t >= 0:
                start, w = n0[t] << shift, weights[t]
                add(start + half + w)
                add(start + (lens[t] << shift) + half - w)
                t = prev_of[t]
            events.sort()
            covered = once = count = prev = 0
            for e in events:
                pos = e >> shift
                if count:
                    covered += pos - prev
                    if count == 1:
                        once += pos - prev
                count += (e & low) - half
                prev = pos
            distinct += covered
            if once:
                unique += once
                pids.add(pid)
        return distinct, unique, pids

    def counters(self) -> dict:
        return {"elements": self.cols, "runs": len(self.runs), "multiplies": self.multiplies,
                "triples": len(self.triple_pid), "distinct_products": len(self)}

    def total_pairs(self) -> int:
        return self.rows * self.cols

    def __len__(self):
        return self._counts[0]

    def unique_count(self) -> int:
        """Number of products with exactly one factorization."""
        return self._counts[1]

    def uniques(self) -> list:
        """(z, (i, j)) for every product with exactly one factorization, in
        canonical order.  The constructor's walk, run again with no key,
        meets triple t as its t-th nz; a triple of a prefix holding a unique
        product has a pair per side and (c_h, run) of its class whose row
        n = nz - c_h has that side's parity, and a sweep of each such
        prefix's pairs names the one of every n that it alone covers."""
        if not self._counts[1]:
            return []
        (rows_of, c_of), pids, hits, t = self._factors, self._counts[2], {}, 0
        for prefix, row_runs in rows_of.items():
            syl_sum, starts = sum(prefix[2]), [n0 for n0, _ in row_runs]  # sorted by the constructor's walk
            for cls, _, start, end in self._walk(prefix, row_runs):
                for nz in range(start, end, 2):
                    if (pid := self.triple_pid[t]) in pids:
                        for side, cs in enumerate(c_of):
                            for c, js in cs.get(cls, ()):  # the row n = nz - c_h of this side's parity, if any
                                r = bisect_right(starts, n := nz - c) - 1
                                if (syl_sum + n) & 1 == side and 0 <= n - starts[r] < len(ix := row_runs[r][1]):
                                    hits.setdefault(pid, []).append((self.triple_n0[t], ix[n - starts[r]], js))
                    t += 1
        out = []
        for pid, met in hits.items():
            events = sorted(e for h, (m0, _, js) in enumerate(met) for e in ((m0, 1, h), (m0 + len(js), -1, h)))
            count = alone = prev = 0
            for pos, step, h in events:
                if count == 1:  # met[alone] is the one interval on [prev, pos)
                    m0, i, js = met[alone]
                    out += [(_from_b_key(self.k, self.prefixes[pid], m), (i, js[m - m0])) for m in range(prev, pos)]
                count += step
                alone += step * h
                prev = pos
        out.sort(key=itemgetter(0))
        return out


def product_table(X: GroupSet | RunSet, Y: GroupSet | RunSet) -> FactorizationTable:
    """The counts of X*Y, with one multiply per (row prefix, core, n mod 2^k)."""
    if X.params != Y.params:
        raise ValueError("product of sets over different groups")
    return FactorizationTable(X, Y)


def unique_products(X: GroupSet, Y: GroupSet) -> list:
    """The products with exactly one factorization, in canonical order."""
    return product_table(X, Y).uniques()


# -- set files ----------------------------------------------------------------


def save_set_file(gset: GroupSet, path: str | os.PathLike, header: str = "") -> None:
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}")
    for w, lab in zip(gset.elements, gset.labels or [None] * len(gset)):
        if lab is None:
            lines.append(str(w))
        elif isinstance(lab, tuple):
            lines.append(f"{w} | {' '.join(str(x) for x in lab)}")
        else:
            lines.append(f"{w} | {lab}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_set_file(path: str | os.PathLike, params: GroupParams) -> GroupSet:
    from .families import FAMILIES, SliceLabel

    elements: list[NormalForm] = []
    labels: list = []
    any_label = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            word_text, _, label_text = line.partition("|")
            elements.append(from_string(word_text.strip(), params))
            label_text = label_text.strip()
            if label_text:
                any_label = True
                parts = label_text.split()
                if len(parts) == 3 and parts[0] in FAMILIES and all(INTEGER.fullmatch(t) for t in parts[1:]):
                    labels.append(SliceLabel(parts[0], int(parts[1]), int(parts[2])))
                else:
                    labels.append(label_text)
            else:
                labels.append(None)
    return make_set(params, elements, labels if any_label else None)
