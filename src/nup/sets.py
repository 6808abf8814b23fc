"""Finite subsets of the group and the factorizations of their products.

A GroupSet is a strictly increasing (hence duplicate-free) tuple of
NormalForms in the canonical order, optionally carrying one label per
element.  A FactorizationTable holds the product set X*Y with every index
pair (i, j) of X[i] * Y[j], so callers can count multiplicities, extract
witnesses and compare products without multiplying.

The table rests on one fact about normal forms.  Right multiplication by b^e
leaves the prefix (u, alpha, syllables) fixed and adds e to the integer

    n = s * 2^k * v + beta,    s = -1 if alpha + len(syllables) is odd, else +1,

so (prefix, n) names an element exactly.  Y therefore splits into maximal
b-runs y, y*b, ..., y*b^(L-1), and x times such a run is the interval
[n0, n0 + L) of a single prefix, found with one multiply.  The table stores
the square once, as one cell per row and run: the cell's n0 sits in a flat
array of 64-bit ints, and each prefix, numbered in scan order, lists its
cells in an array of 32-bit ints, so a cell costs about 13 bytes.  The
product of row i and column j is the key (prefix id, n0 + offset of j in its
run).  A sweep over the cells of each prefix gives the distinct
products, the multiplicities and the uniquely represented products; pair
lists are rebuilt only on demand.

Set file format: UTF-8 text, one word per line in the word grammar, "#"
starts a comment, blank lines are ignored, and an optional trailing
"| label" annotates the element.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from typing import Iterable, Optional, Sequence

from .words import GroupParams, NormalForm, from_string, to_string


class GroupSet:
    __slots__ = ("params", "elements", "labels", "duplicates_removed", "_index")

    def __init__(self, params: GroupParams, elements: tuple, labels: Optional[tuple], duplicates_removed: int):
        self.params = params
        self.elements = elements
        self.labels = labels
        self.duplicates_removed = duplicates_removed
        self._index = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __contains__(self, w):
        return w in self._position_map()

    def __eq__(self, other):
        if not isinstance(other, GroupSet):
            return NotImplemented
        return self.params == other.params and self.elements == other.elements

    def __repr__(self):
        return f"GroupSet(k={self.params.k}, size={len(self.elements)})"

    def _position_map(self) -> dict:
        if self._index is None:
            self._index = {w: i for i, w in enumerate(self.elements)}
        return self._index

    def index_of(self, w: NormalForm) -> Optional[int]:
        return self._position_map().get(w)

    def label_of(self, i: int):
        return None if self.labels is None else self.labels[i]

    def inverse_set(self) -> "GroupSet":
        """The set of inverses, re-sorted; labels are dropped."""
        return make_set(self.params, [w.inverse() for w in self.elements])


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
    pairs = sorted(zip(elems, labels or [None] * len(elems)), key=lambda t: t[0].sort_key())
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


def _cover(cells: array, n0: array, lens: list) -> tuple[int, int]:
    """(points covered, points covered exactly once) by the intervals of one
    prefix's cells; lens holds the length of every run."""
    R = len(lens)
    if len(cells) == 1:  # one interval, covered once
        length = lens[cells[0] % R]
        return length, length
    # an event is pos << 1 | is_start, so the ints sort by position
    events: list[int] = []
    add = events.append
    for c in cells:
        start = n0[c]
        add(start << 1 | 1)
        add((start + lens[c % R]) << 1)
    events.sort()
    covered = once = count = prev = 0
    for e in events:
        pos = e >> 1
        if count:
            covered += pos - prev
            if count == 1:
                once += pos - prev
        count += 1 if e & 1 else -1
        prev = pos
    return covered, once


class FactorizationTable:
    """All factorizations of the product set X*Y, stored as one cell per
    (row i, b-run r of Y).

    Cell c = i * len(runs) + r is the product of X[i] with the run's first
    element: cell_n0[c] is its n, and cells_of holds the cells of each prefix
    as an array('i') in row order, prefixes numbered in scan order.  With
    the 8-byte n0 a cell takes about 13 bytes; tracemalloc gives 22, 18 and
    15 at base k = 4, 5 and 6, where the arrays' headers still count.  Cell
    ids are 32-bit ints; the CLI's memory budget admits about 41M cells.
    X[i] times the t-th element of the run is then (prefix id of c,
    cell_n0[c] + t), and the run's products are the interval
    [n0, n0 + len(run)) of one prefix.  Keys
    (prefix id, n) name products exactly.  A row's cells of one prefix are a
    bisected slice of its cell list, which right_factor reads; product, key_of
    and is_run read the prefix id of every cell (cell_pid) and the run and
    offset of every column, indexed on first use.  The first count sweeps each
    prefix once.  cell_n0 holds 64-bit ints; a product beyond that is refused
    with a ValueError.
    """

    __slots__ = ("x", "y", "runs", "prefixes", "cells_of", "cell_n0", "cell_pid", "_prefix_id", "_cols", "_counts")

    def __init__(self, x: GroupSet, y: GroupSet):
        self.x = x
        self.y = y
        self.runs = b_runs(y.elements)
        heads = [y.elements[run[0]] for run in self.runs]
        k = x.params.k
        cells_at: dict = {}
        self.cell_n0 = array("q")
        get, add_n0 = cells_at.get, self.cell_n0.append
        c = 0
        try:
            for xe in x.elements:
                for head in heads:
                    z = xe * head
                    # b_key(z), inlined: this loop is the whole scan
                    alpha, syl = z.alpha, z.syllables
                    n = -(z.v << k) if (alpha + len(syl)) & 1 else z.v << k
                    prefix = (z.u, alpha, syl)
                    cells = get(prefix)
                    if cells is None:
                        cells_at[prefix] = array("i", (c,))
                    else:
                        cells.append(c)
                    add_n0(n + z.beta)
                    c += 1
        except OverflowError:
            raise ValueError("a product's b-coordinate n does not fit in 64 bits") from None
        self.prefixes = list(cells_at)
        self.cells_of = list(cells_at.values())
        self.cell_pid = self._prefix_id = self._cols = self._counts = None

    def _sweep(self) -> tuple[int, int, list]:
        """(distinct products, unique products, ids of the prefixes holding a
        unique product), from one sweep of every prefix's cells."""
        if self._counts is None:
            n0, lens = self.cell_n0, [len(run) for run in self.runs]
            distinct = unique = 0
            pids = []
            for pid, cells in enumerate(self.cells_of):
                covered, once = _cover(cells, n0, lens)
                distinct += covered
                if once:
                    unique += once
                    pids.append(pid)
            self._counts = distinct, unique, pids
        return self._counts

    def counters(self) -> dict:
        multiplies = len(self.x) * len(self.runs)
        return {"elements": len(self.y), "runs": len(self.runs), "multiplies": multiplies, "distinct_products": len(self)}

    def total_pairs(self) -> int:
        return len(self.x) * len(self.y)

    def __len__(self):
        return self._sweep()[0]

    # -- products by key ------------------------------------------------------

    def _columns(self) -> tuple[array, array]:
        """(run of j, offset of j in its run) for every column j; builds the
        key index on first use."""
        if self._cols is None:
            self.cell_pid = array("i", [0]) * len(self.cell_n0)
            for pid, cells in enumerate(self.cells_of):
                for c in cells:
                    self.cell_pid[c] = pid
            self._prefix_id = {prefix: pid for pid, prefix in enumerate(self.prefixes)}
            run_of = array("i", [0]) * len(self.y)
            offset = array("i", [0]) * len(self.y)
            for r, run in enumerate(self.runs):
                for t, j in enumerate(run):
                    run_of[j] = r
                    offset[j] = t
            self._cols = run_of, offset
        return self._cols

    def product(self, i: int, j: int) -> tuple[int, int]:
        """The key of X[i] * Y[j]."""
        run_of, offset = self._cols or self._columns()
        c = i * len(self.runs) + run_of[j]
        return self.cell_pid[c], self.cell_n0[c] + offset[j]

    def is_run(self, cols: list) -> bool:
        """True when the columns cols are consecutive elements, in order, of one b-run."""
        run_of, offset = self._cols or self._columns()
        t0 = offset[cols[0]]
        return self.runs[run_of[cols[0]]][t0 : t0 + len(cols)] == cols

    def right_factor(self, i: int, key: tuple[int, int]) -> Optional[int]:
        """The j with X[i] * Y[j] named by key, else None."""
        pid, n = key
        cells, R = self.cells_of[pid] if pid >= 0 else [], len(self.runs)
        # row i's cells are one slice, and a row meets each product at most once
        for c in cells[bisect_left(cells, i * R) : bisect_left(cells, (i + 1) * R)]:
            t = n - self.cell_n0[c]
            if 0 <= t < len(self.runs[c % R]):
                return self.runs[c % R][t]
        return None

    def key_of(self, w: NormalForm) -> tuple[int, int]:
        """The key (prefix id, n) of w; prefix id -1 when no product has w's prefix."""
        self._columns()
        prefix, n = b_key(w)
        return self._prefix_id.get(prefix, -1), n

    def element_of(self, key: tuple[int, int]) -> NormalForm:
        pid, n = key
        return _from_b_key(self.x.params.k, self.prefixes[pid], n)

    # -- pair lists, rebuilt on demand ----------------------------------------

    def factorizations(self, z: NormalForm) -> list[tuple[int, int]]:
        """Every (i, j) with X[i] * Y[j] = z, sorted."""
        key = self.key_of(z)
        if key[0] < 0:
            return []
        R = len(self.runs)
        rows = dict.fromkeys(c // R for c in self.cells_of[key[0]])  # in row order
        return [(i, j) for i in rows if (j := self.right_factor(i, key)) is not None]

    def multiplicity(self, z: NormalForm) -> int:
        return len(self.factorizations(z))

    def _points(self, pid: int) -> list[tuple[NormalForm, list]]:
        """Every product of one prefix with its sorted factorizations."""
        at: dict = {}
        R = len(self.runs)
        for c in self.cells_of[pid]:
            i, r = divmod(c, R)
            n0 = self.cell_n0[c]
            for t, j in enumerate(self.runs[r]):
                at.setdefault(n0 + t, []).append((i, j))
        return [(self.element_of((pid, n)), pairs) for n, pairs in at.items()]

    def items(self) -> list[tuple[NormalForm, list]]:
        """Every product with its sorted factorizations, in canonical order."""
        out = [item for pid in range(len(self.cells_of)) for item in self._points(pid)]
        out.sort(key=lambda t: t[0].sort_key())
        return out

    def unique_count(self) -> int:
        """Number of products with exactly one factorization."""
        return self._sweep()[1]

    def uniques(self) -> list:
        """(z, (i, j)) for every product with exactly one factorization, in
        canonical order; only the prefixes that hold one are expanded."""
        out = [(z, pairs[0]) for pid in self._sweep()[2] for z, pairs in self._points(pid) if len(pairs) == 1]
        out.sort(key=lambda t: t[0].sort_key())
        return out


def product_table(X: GroupSet, Y: GroupSet) -> FactorizationTable:
    """Complete factorization table of X*Y with one multiply per (x, b-run of Y)."""
    if X.params != Y.params:
        raise ValueError("product of sets over different groups")
    return FactorizationTable(X, Y)


def unique_products(X: GroupSet, Y: GroupSet, table: Optional[FactorizationTable] = None) -> list:
    """The products with exactly one factorization, in canonical order."""
    if table is None:
        table = product_table(X, Y)
    return table.uniques()


def is_nonunique_square(S: GroupSet) -> tuple[bool, Optional[tuple]]:
    """True when S*S has no uniquely represented element.

    On False the first uniquely represented element and its factorization is
    returned as a witness.
    """
    if len(S) == 0:
        raise ValueError("empty set")
    singles = unique_products(S, S)
    if singles:
        return False, singles[0]
    return True, None


# -- set files ----------------------------------------------------------------


def save_set_file(gset: GroupSet, path: str | os.PathLike, header: str = "") -> None:
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}")
    for i, w in enumerate(gset.elements):
        lab = gset.label_of(i)
        if lab is None:
            lines.append(to_string(w))
        elif isinstance(lab, tuple):
            lines.append(f"{to_string(w)} | {' '.join(str(x) for x in lab)}")
        else:
            lines.append(f"{to_string(w)} | {lab}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_set_file(path: str | os.PathLike, params: GroupParams) -> GroupSet:
    from .families import SliceLabel

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
                if len(parts) == 3 and parts[0] in ("X", "Y", "Z"):
                    try:
                        labels.append(SliceLabel(parts[0], int(parts[1]), int(parts[2])))
                        continue
                    except ValueError:
                        pass
                labels.append(label_text)
            else:
                labels.append(None)
    return make_set(params, elements, labels if any_label else None)
