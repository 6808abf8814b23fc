"""Finite subsets of the group and the factorizations of their products.

A GroupSet is a strictly increasing (hence duplicate-free) tuple of
NormalForms in the canonical order, optionally carrying one label per
element.  A FactorizationTable records, for every element z of the product
set X*Y, every index pair (i, j) with X[i] * Y[j] = z, so callers can count
multiplicities and extract witnesses.

The table rests on one fact about normal forms.  Right multiplication by b^e
leaves the prefix (u, alpha, syllables) fixed and adds e to the integer

    n = s * 2^k * v + beta,    s = -1 if alpha + len(syllables) is odd, else +1,

so (prefix, n) names an element exactly.  Y therefore splits into maximal
b-runs y, y*b, ..., y*b^(L-1), and x times such a run is the interval
[n0, n0 + L) of a single prefix, found with one multiply.  A sweep over the
intervals of each prefix gives the distinct products, the multiplicities and
the uniquely represented products; pair lists are rebuilt only on demand.

Set file format: UTF-8 text, one word per line in the word grammar, "#"
starts a comment, blank lines are ignored, and an optional trailing
"| label" annotates the element.
"""

from __future__ import annotations

import os
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

    Callers that rely on distinctness assert ``duplicates_removed == 0``.
    """
    elems = list(elements)
    for w in elems:
        if w.k != params.k:
            raise ValueError(f"element of group k={w.k} in a set over k={params.k}")
    if labels is not None:
        labels = list(labels)
        if len(labels) != len(elems):
            raise ValueError(f"{len(labels)} labels for {len(elems)} elements")
        pairs = sorted(zip(elems, labels), key=lambda t: t[0].sort_key())
        out_e: list[NormalForm] = []
        out_l: list = []
        dups = 0
        for w, lab in pairs:
            if out_e and out_e[-1] == w:
                dups += 1
                continue
            out_e.append(w)
            out_l.append(lab)
        return GroupSet(params, tuple(out_e), tuple(out_l), dups)
    elems.sort(key=lambda w: w.sort_key())
    out: list[NormalForm] = []
    dups = 0
    for w in elems:
        if out and out[-1] == w:
            dups += 1
            continue
        out.append(w)
    return GroupSet(params, tuple(out), None, dups)


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


def _cover(bucket: list) -> tuple[int, int]:
    """(points covered, points covered exactly once) by a bucket's intervals."""
    if len(bucket) == 1:  # most buckets of a small random set
        return bucket[0][1], bucket[0][1]
    # an event is pos << 1 | is_start, so the ints sort by position
    events = [n << 1 | 1 for n, _, _, _ in bucket]
    events += [(n + length) << 1 for n, length, _, _ in bucket]
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
    """All factorizations of the product set X*Y, stored as b-intervals.

    Y splits into maximal b-runs; the products of x with a run of length L
    are the interval [n0, n0 + L) of one prefix, where (prefix, n0) = b_key(x
    times the run's first element).  ``buckets`` maps each prefix to its
    intervals (n0, L, i, r) in row order; pair lists are rebuilt on demand,
    one bucket at a time.
    """

    __slots__ = ("x", "y", "runs", "buckets", "_distinct")

    def __init__(self, x: GroupSet, y: GroupSet):
        self.x = x
        self.y = y
        self.runs = b_runs(y.elements)
        heads = [(y.elements[run[0]], len(run), r) for r, run in enumerate(self.runs)]
        k = x.params.k
        buckets: dict = {}
        get = buckets.get
        for i, xe in enumerate(x.elements):
            for head, length, r in heads:
                z = xe * head
                # b_key(z), inlined: this loop is the whole scan
                alpha, syl = z.alpha, z.syllables
                n = -(z.v << k) if (alpha + len(syl)) & 1 else z.v << k
                prefix = (z.u, alpha, syl)
                bucket = get(prefix)
                if bucket is None:
                    buckets[prefix] = [(n + z.beta, length, i, r)]
                else:
                    bucket.append((n + z.beta, length, i, r))
        self.buckets = buckets
        self._distinct = None

    def counters(self) -> dict:
        multiplies = len(self.x) * len(self.runs)
        return {"elements": len(self.y), "runs": len(self.runs), "multiplies": multiplies, "distinct_products": len(self)}

    def total_pairs(self) -> int:
        return len(self.x) * len(self.y)

    def __len__(self):
        if self._distinct is None:
            self._distinct = sum(_cover(bucket)[0] for bucket in self.buckets.values())
        return self._distinct

    def factorizations(self, z: NormalForm) -> list[tuple[int, int]]:
        """Every (i, j) with X[i] * Y[j] = z, sorted."""
        prefix, n = b_key(z)
        out = []
        for n0, length, i, r in self.buckets.get(prefix, ()):
            if n0 <= n < n0 + length:
                out.append((i, self.runs[r][n - n0]))
        return out

    def multiplicity(self, z: NormalForm) -> int:
        return len(self.factorizations(z))

    def _points(self, prefix: tuple, bucket: list) -> list[tuple[NormalForm, list]]:
        """Every product of one bucket with its factorizations."""
        at: dict = {}
        # the bucket is in row order and a row covers a point at most once,
        # so every pair list comes out sorted
        for n0, length, i, r in bucket:
            run = self.runs[r]
            for t in range(length):
                at.setdefault(n0 + t, []).append((i, run[t]))
        k = self.x.params.k
        return [(_from_b_key(k, prefix, n), pairs) for n, pairs in at.items()]

    def items(self) -> list[tuple[NormalForm, list]]:
        """Every product with its sorted factorizations, in canonical order."""
        out = [item for prefix, bucket in self.buckets.items() for item in self._points(prefix, bucket)]
        out.sort(key=lambda t: t[0].sort_key())
        return out

    def unique_count(self) -> int:
        """Number of products with exactly one factorization."""
        return sum(_cover(bucket)[1] for bucket in self.buckets.values())

    def uniques(self) -> list:
        """(z, (i, j)) for every product with exactly one factorization, in
        canonical order; only the buckets that hold one are expanded."""
        out = [
            (z, pairs[0])
            for prefix, bucket in self.buckets.items()
            if _cover(bucket)[1]
            for z, pairs in self._points(prefix, bucket)
            if len(pairs) == 1
        ]
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
