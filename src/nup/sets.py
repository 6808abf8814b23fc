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

The table stores the square once, as weighted intervals: one triple
(prefix id, n0, run length, weight) per interval that rows of one row prefix
meet, with no entry per row and run.  The scan counts each interval's rows by
convolving intervals of n with the heads' c_h, and a triple's pairs are the
rows and heads with n + c_h = nz.  A sweep over the triples of each prefix,
two weighted events each, gives the distinct products and the unique ones.

Set file format: UTF-8 text, one word per line in the word grammar, "#"
starts a comment, blank lines are ignored, and an optional trailing
"| label" annotates the element.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_right
from itertools import pairwise
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .words import INTEGER, GroupParams, NormalForm, from_string, to_string


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
    """All factorizations of the product set X*Y, as weighted intervals.

    X[i] times a b-run of Y is the interval [n0, n0 + run length) of one
    product prefix, named by a RunProducts kernel (see the module docstring).
    Within one row prefix (u, alpha, syllables) it depends on the row's n only
    through nz = n + c_h and the head's class (core id, beta_h, run length).
    So the scan visits no (row, run) pair: per row prefix it convolves the
    rows' n, as step-2 intervals per parity (which picks the heads' split),
    with each class's c_h by +1 and -1 events, sums both parities, and makes
    one kernel key and one triple per (class, nz) of positive weight.  The
    paper's sets get one triple per distinct (prefix, n0, run length);
    elsewhere two may share one, and the sweep adds their weights.

    Triple t has prefix id triple_pid[t], start triple_n0[t], length
    triple_len[t], weight triple_weight[t] (the (row, run) pairs that meet
    it) and nz triple_nz[t]; the triples of prefix pid are linked from
    last_triple[pid] through triple_prev, ending at -1.  All are flat arrays
    of machine ints; a product beyond 64 bits is refused with a ValueError.

    product reads a pair's key from the kernel's product memos, which the
    table keeps, without a multiply; a row times a run is the interval that
    starts at the key of the row times the run's head.  The pair lists
    recover a triple's pairs, the rows n and heads c_h of its row prefix and
    class with n + c_h = nz, through an index of the rows built on first use,
    which verify and check of a set with no unique product never build.
    """

    __slots__ = (
        "x", "y", "runs", "prefixes", "multiplies",
        "triple_pid", "triple_n0", "triple_len", "triple_weight", "triple_nz", "last_triple", "triple_prev",
        "_splits", "_c_of", "_rows", "_sources", "_prefix_id", "_cols", "_counts", "_row_at",
    )

    def __init__(self, x: GroupSet, y: GroupSet):
        self.x = x
        self.y = y
        self.runs = runs = b_runs(y.elements)
        k = x.params.k
        kernel = RunProducts(k)
        product_key = kernel.key
        self._splits = splits = [kernel.split(y.elements[run[0]]) for run in runs]
        # for rows with an even and an odd number of b letters, the (c_h, run)
        # of each class, named by its split with c_h = 0 (the key of (n, c_h)
        # is that of (n + c_h, 0)) and its run length
        self._c_of = c_of = ({}, {})
        for r, (run, split) in enumerate(zip(runs, splits)):
            for cs, (core_key, mask, c_h, beta, flip, du, core) in zip(c_of, split):
                cs.setdefault(((core_key, mask, 0, beta, flip, du, core), len(run)), []).append((c_h, r))
        rows_of: dict = {}  # row prefix -> its rows' (n, row)
        for i, xe in enumerate(x.elements):
            prefix, n = b_key(xe)
            rows_of.setdefault(prefix, []).append((n, i))
        self._rows = row_data = [None] * len(x)  # (product memo of the row prefix, n, parity)
        self.last_triple, self.triple_prev = last, prev = array("i"), array("i")
        self.triple_pid, self.triple_n0, self.triple_len, self.triple_weight, self.triple_nz = arrays = [array(c) for c in "iqiiq"]
        new_pid, new_n0, new_len, new_weight, new_nz = (a.append for a in arrays)
        self._sources = sources = []  # (first triple, row prefix's memo, class) of each lattice
        try:
            for (u, alpha, syl), rows in rows_of.items():
                memo: dict = {}
                syl_sum = sum(syl)
                # the rows' n as step-2 intervals [a, b], per parity
                spans: tuple = ([], [])
                for n, i in sorted(rows):
                    parity = (syl_sum + n) & 1
                    row_data[i] = memo, n, parity
                    side = spans[parity]
                    if side and side[-1][1] + 2 == n:
                        side[-1][1] = n
                    else:
                        side.append([n, n])
                # the weight of nz in a class is #{(n, c) : n + c = nz}: +1 at
                # a + c and -1 at b + c + 2 per interval and c, on the lattice
                # of nz's parity, with the rows of both parities in one sum
                events: dict = {}
                for side, cs in zip(spans, c_of):
                    for cls, c_hs in cs.items() if side else ():
                        for c, _ in c_hs:
                            lattice = events.setdefault((cls, (side[0][0] + c) & 1), {})
                            for a, b in side:
                                lattice[a + c] = lattice.get(a + c, 0) + 1
                                lattice[b + c + 2] = lattice.get(b + c + 2, 0) - 1
                for (cls, _), lattice in events.items():
                    head, length = cls
                    sources.append((len(prev), memo, cls))
                    w = 0
                    for start, end in pairwise(sorted(lattice)):
                        w += lattice[start]
                        for nz in range(start, end, 2) if w else ():
                            pid, n0 = product_key(memo, u, alpha, syl, nz, head)
                            if pid == len(last):
                                last.append(-1)
                            prev.append(last[pid])
                            last[pid] = len(prev) - 1
                            new_pid(pid)
                            new_n0(n0)
                            new_len(length)
                            new_weight(w)
                            new_nz(nz)
        except OverflowError:
            raise ValueError("a product's b-coordinate n does not fit in 64 bits") from None
        self._prefix_id = kernel.prefix_id
        self.prefixes = list(kernel.prefix_id)
        self.multiplies = kernel.multiplies
        # the run of every column j and its offset there
        self._cols = run_of, offset = array("i", [0]) * len(y), array("i", [0]) * len(y)
        for r, run in enumerate(runs):
            for t, j in enumerate(run):
                run_of[j], offset[j] = r, t
        self._counts = self._row_at = None

    def _sweep(self) -> tuple[int, int, list]:
        """(distinct products, unique products, ids of the prefixes holding a
        unique product), from one sweep of every prefix's triples."""
        if self._counts is None:
            n0, lens, weights, prev_of = self.triple_n0, self.triple_len, self.triple_weight, self.triple_prev
            # an event is pos << shift | half + the change of the count there,
            # and every weight is below half, so the ints sort by position;
            # they stay small, so the sort compares them fast
            shift = max(weights, default=0).bit_length() + 1
            half, low = 1 << (shift - 1), (1 << shift) - 1
            distinct = unique = 0
            pids = []
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
                    pids.append(pid)
            self._counts = distinct, unique, pids
        return self._counts

    def counters(self) -> dict:
        return {"elements": len(self.y), "runs": len(self.runs), "multiplies": self.multiplies,
                "triples": len(self.triple_pid), "distinct_products": len(self)}

    def total_pairs(self) -> int:
        return len(self.x) * len(self.y)

    def __len__(self):
        return self._sweep()[0]

    # -- products by key ------------------------------------------------------

    def product(self, i: int, j: int) -> tuple[int, int]:
        """The key of X[i] * Y[j], read through the product memo of X[i]'s row prefix."""
        run_of, offset = self._cols
        memo, n, parity = self._rows[i]
        core_key, mask, c_h, beta, flip, _, _ = self._splits[run_of[j]][parity]
        # RunProducts.key, whose memo entry the scan made
        nz = n + c_h
        rho = nz & mask
        pid, zn = memo[core_key + rho]
        shift = nz - rho
        return pid, zn + beta + offset[j] + (-shift if flip else shift)

    def is_run(self, cols: list) -> bool:
        """True when the columns cols are consecutive elements, in order, of one b-run."""
        run_of, offset = self._cols
        t0 = offset[cols[0]]
        return self.runs[run_of[cols[0]]][t0 : t0 + len(cols)] == cols

    def runs_of(self, cols: Iterable[int]) -> list[int]:
        """The b-runs that hold the columns cols, each once."""
        run_of = self._cols[0]
        return list(dict.fromkeys(run_of[j] for j in cols))

    def key_of(self, w: NormalForm) -> tuple[int, int]:
        """The key (prefix id, n) of w; prefix id -1 when no product has w's prefix."""
        prefix, n = b_key(w)
        return self._prefix_id.get(prefix, -1), n

    def element_of(self, key: tuple[int, int]) -> NormalForm:
        pid, n = key
        return _from_b_key(self.x.params.k, self.prefixes[pid], n)

    # -- pair lists, rebuilt on demand ----------------------------------------

    def _triples(self, pid: int):
        """The triples of prefix pid, the last made first."""
        t = self.last_triple[pid]
        while t >= 0:
            yield t
            t = self.triple_prev[t]

    def _meeting(self, pid: int, n: int) -> list[int]:
        """The triples of prefix pid whose interval holds n."""
        n0, lens = self.triple_n0, self.triple_len
        return [t for t in self._triples(pid) if 0 <= n - n0[t] < lens[t]] if pid >= 0 else []

    def _cells(self, t: int) -> list[tuple[int, int]]:
        """The (row, run) pairs that meet triple t: the rows n and heads c_h of
        its lattice's row prefix and class with n + c_h = nz."""
        self._row_at = self._row_at or {(id(memo), n): i for i, (memo, n, _) in enumerate(self._rows)}
        _, memo, cls = self._sources[bisect_right(self._sources, t, key=itemgetter(0)) - 1]
        nz, rows, row_at = self.triple_nz[t], self._rows, self._row_at
        pairs = ((row_at.get((id(memo), nz - c)), r, parity) for parity, cs in enumerate(self._c_of) for c, r in cs.get(cls, ()))
        # a row reads the heads' split for its own parity of b letters only
        return [(i, r) for i, r, parity in pairs if i is not None and rows[i][2] == parity]

    def factorizations(self, z: NormalForm) -> list[tuple[int, int]]:
        """Every (i, j) with X[i] * Y[j] = z, sorted; a row meets z at most once."""
        pid, n = self.key_of(z)
        return sorted((i, self.runs[r][n - self.triple_n0[t]]) for t in self._meeting(pid, n) for i, r in self._cells(t))

    def multiplicity(self, z: NormalForm) -> int:
        """The number of factorizations of z, from the weights of its triples."""
        return sum(self.triple_weight[t] for t in self._meeting(*self.key_of(z)))

    def _points(self, pid: int) -> list[tuple[NormalForm, list]]:
        """Every product of one prefix with its sorted factorizations."""
        at: dict = {}
        for t in self._triples(pid):
            for i, r in self._cells(t):
                for off, j in enumerate(self.runs[r]):
                    at.setdefault(self.triple_n0[t] + off, []).append((i, j))
        return [(self.element_of((pid, n)), sorted(pairs)) for n, pairs in at.items()]

    def items(self) -> list[tuple[NormalForm, list]]:
        """Every product with its sorted factorizations, in canonical order."""
        out = [item for pid in range(len(self.prefixes)) for item in self._points(pid)]
        out.sort(key=lambda t: t[0])
        return out

    def unique_count(self) -> int:
        """Number of products with exactly one factorization."""
        return self._sweep()[1]

    def uniques(self) -> list:
        """(z, (i, j)) for every product with exactly one factorization, in
        canonical order; only the prefixes that hold one are expanded."""
        out = [(z, pairs[0]) for pid in self._sweep()[2] for z, pairs in self._points(pid) if len(pairs) == 1]
        out.sort(key=lambda t: t[0])
        return out


def product_table(X: GroupSet, Y: GroupSet) -> FactorizationTable:
    """Complete factorization table of X*Y, with one multiply per (row prefix, core, n mod 2^k)."""
    if X.params != Y.params:
        raise ValueError("product of sets over different groups")
    return FactorizationTable(X, Y)


def unique_products(X: GroupSet, Y: GroupSet, table: Optional[FactorizationTable] = None) -> list:
    """The products with exactly one factorization, in canonical order."""
    if table is None:
        table = product_table(X, Y)
    return table.uniques()


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
