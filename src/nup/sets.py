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
of v the row prefix has.  At base k = 1, ..., 7 that is 20, 72, 272, 1,056,
4,160, 16,512 and 65,792 multiplies, and the scaled sets T(1, q) make the
multiplies of T at every q.

The table stores the square once, as one cell per row and run.  A cell is
the 4-byte id of a triple (prefix id, n0, run length, weight) in flat arrays
of machine ints: the cells of a row prefix that meet the same interval share
one, so at base k = 7 the 8,553,217 cells hold 198,145 triples.  The product
of row i and column j is the key (prefix id, n0 + offset of j in its run),
read through the cell's triple.  A sweep over the triples of each prefix, two
weighted events each, gives the distinct products and the uniquely
represented ones; pair lists are rebuilt only on demand, through an index
from triples to their cells.

Set file format: UTF-8 text, one word per line in the word grammar, "#"
starts a comment, blank lines are ignored, and an optional trailing
"| label" annotates the element.
"""

from __future__ import annotations

import os
import re
from array import array
from itertools import accumulate
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
    (core id, u shift, c_h, r_h, beta_h, flip), where the u shift is +u_h
    or -u_h, r_h is None for a power of b, flip is set when r_h has an odd
    number of letters a, and the core id numbers (u shift, r_h).  key()
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
        ids = self.core_ids
        return tuple((ids.setdefault((du, core), len(ids)), du, c_h, core, h.beta, flip) for du in (h.u, -h.u))

    def key(self, memo: dict, u: int, alpha: int, syl: tuple, n: int, head: tuple) -> tuple[int, int]:
        """The key (prefix id, n) of x * h, where x has the b-coordinates
        ((u, alpha, syl), n) and head is h's split for x's parity; memo is
        the product memo of the row prefix (u, alpha, syl)."""
        core_id, du, c_h, core, beta, flip = head
        k = self.k
        # x' = x * a^(2u_h) * b^(c_h) has the prefix (u + du, alpha, syl)
        # and n + c_h = M w + rho, so x' * r_h = (E(rho) * r_h) * b^(+-M w)
        # with E(rho) the element of x''s prefix whose n is rho
        nz = n + c_h
        rho = nz & ((1 << k) - 1) if core is not None else 0
        memo_key = (core_id << k) + rho
        hit = memo.get(memo_key)
        if hit is None:
            if core is None:
                prefix, zn = (u + du, alpha, syl), 0
            else:
                prefix, zn = b_key(NormalForm._make(k, u + du, 0, alpha, syl, rho) * core)
                self.multiplies += 1
            hit = memo[memo_key] = self.prefix_id.setdefault(prefix, len(self.prefix_id)), zn
        shift = nz - rho
        return hit[0], hit[1] + beta + (-shift if flip else shift)


# cell ids are 32-bit ints
MAX_CELLS = (1 << 31) - 1


class FactorizationTable:
    """All factorizations of the product set X*Y, stored as one cell per
    (row i, b-run r of Y).

    Cell c = i * len(runs) + r is the product of X[i] with the run: X[i]
    times the t-th element of the run is (prefix id, n0 + t), so the run's
    products are the interval [n0, n0 + len(run)) of one prefix.  Keys
    (prefix id, n) name products exactly.  The scan visits the rows grouped
    by row prefix (u, alpha, syllables), the groups in the order of their
    first rows and each group in row order, and each row's runs in order;
    prefixes and triples are numbered in that order, and each cell is
    written in place into cell_triple, allocated whole before the scan.

    A cell holds only the id of its triple, cell_triple[c] = t.  Triple t is
    the interval: prefix id triple_pid[t], start triple_n0[t] and length
    triple_len[t], and triple_weight[t] counts the cells that hold it.  The
    triples of prefix pid are linked from last_triple[pid] through
    triple_prev, ending at -1.  All of these are flat arrays: no tuple is
    stored per cell or per triple.

    The scan names each product through a RunProducts kernel (see the module
    docstring), and multiplies counts the multiplies made.  A memo of the row
    prefix, keyed by (n + c_h) << shift plus an id of (u shift, core, beta_h,
    run length), names each cell's triple.  The rows of a row prefix come in
    order of v, and two rows whose keys meet are less than reach apart in v,
    so every reach values of v the memo drops the triples made before its
    last such purge.  In the paper's sets every distinct (prefix, n0, run
    length) then has exactly one triple; in another set two heads may meet
    one interval, whose two triples' weights the sweep adds.  A cell takes 4
    bytes and a triple 24; tracemalloc gives 12.5 and 8.3 B per cell at base
    k = 5 and 6, where the prefixes and the triples still count.  Cell ids
    are 32-bit ints, so more than MAX_CELLS cells are refused with a ValueError before the scan; base
    k = 8, the largest base set the CLI admits, has 67,765,761.  triple_n0
    holds 64-bit ints; a product beyond that is refused with a ValueError.

    product, factors_in, key_of and is_run read forward from a cell through
    its triple, and the run and offset of every column, indexed on first
    use.  The first count sweeps the triples of each prefix once.
    factorizations, items and uniques walk one prefix's triples and reach
    their cells through an inverse index, built on first use: verify and
    check of a set with no unique product never build it.
    """

    __slots__ = (
        "x", "y", "runs", "prefixes", "multiplies",
        "cell_triple", "triple_pid", "triple_n0", "triple_len", "triple_weight", "last_triple", "triple_prev",
        "_prefix_id", "_cols", "_counts", "_cells",
    )

    def __init__(self, x: GroupSet, y: GroupSet):
        self.x = x
        self.y = y
        self.runs = runs = b_runs(y.elements)
        R = len(runs)
        if len(x) * R > MAX_CELLS:
            raise ValueError(f"{len(x)} rows times {R} b-runs is {len(x) * R:,} cells, above the {MAX_CELLS:,} that 32-bit cell ids name")
        k = x.params.k
        kernel = RunProducts(k)
        product_key = kernel.key
        # A head is (triple offset, run length, split), listed for rows with
        # an even and an odd number of b letters.  The offset packs c_h above
        # an id of (core id, beta_h, run length), below 2 * runs, so within
        # one row prefix (n << shift) + offset names the cell's triple exactly.
        shift = (2 * R).bit_length()
        triple_ids: dict = {}
        c_range: dict = {}  # triple id -> (least, greatest c_h)
        even, odd = [], []
        for run in runs:
            for heads, split in zip((even, odd), kernel.split(y.elements[run[0]])):
                core_id, _, c_h, _, beta, _ = split
                tid = triple_ids.setdefault((core_id, beta, len(run)), len(triple_ids))
                lo, hi = c_range.get(tid, (c_h, c_h))
                c_range[tid] = min(lo, c_h), max(hi, c_h)
                heads.append(((c_h << shift) + tid, len(run), split))
        # two rows whose offsets name one triple have n at most the widest
        # c_h range apart, so v less than reach apart
        reach = max((hi - lo for lo, hi in c_range.values()), default=0) // (1 << k) + 2
        # the rows of each row prefix (u, alpha, syllables), in row order
        rows_of: dict = {}
        for i, xe in enumerate(x.elements):
            rows_of.setdefault((xe.u, xe.alpha, xe.syllables), array("i")).append(i)
        self.last_triple, self.triple_prev = last, prev = array("i"), array("i")
        self.cell_triple = cells = array("i", [0]) * (len(x) * R)
        self.triple_pid, self.triple_n0, self.triple_len = array("i"), array("q"), array("i")
        weights: list = []  # a list while the scan counts: its items update faster
        new_pid, new_n0, new_len, new_weight = self.triple_pid.append, self.triple_n0.append, self.triple_len.append, weights.append
        products: dict = {}
        xs = x.elements
        try:
            for (u, alpha, syl), rows in rows_of.items():
                # both memos are keyed within one row prefix
                products.clear()
                triples, kept, v_next = {}, len(prev), xs[rows[0]].v + reach
                triples_get = triples.get
                a_odd = (alpha + len(syl)) & 1
                syl_sum = sum(syl)
                for i in rows:
                    xe = xs[i]
                    if xe.v >= v_next:
                        # the rows of a row prefix come in order of v, so the
                        # triples made before the last purge are met no more
                        triples = {key: t for key, t in triples.items() if t >= kept}
                        triples_get = triples.get
                        kept, v_next = len(prev), xe.v + reach
                    n = (-(xe.v << k) if a_odd else xe.v << k) + xe.beta
                    row_key = n << shift
                    c = i * R
                    for offset, length, split in odd if (syl_sum + xe.beta) & 1 else even:
                        t = triples_get(row_key + offset)
                        if t is None:
                            pid, n0 = product_key(products, u, alpha, syl, n, split)
                            if pid == len(last):
                                last.append(-1)
                            t = triples[row_key + offset] = len(prev)
                            prev.append(last[pid])
                            last[pid] = t
                            new_pid(pid)
                            new_n0(n0)
                            new_len(length)
                            new_weight(1)
                        else:
                            weights[t] += 1
                        cells[c] = t
                        c += 1
        except OverflowError:
            raise ValueError("a product's b-coordinate n does not fit in 64 bits") from None
        self.triple_weight = array("i", weights)
        self._prefix_id = kernel.prefix_id
        self.prefixes = list(kernel.prefix_id)
        self.multiplies = kernel.multiplies
        self._cols = self._counts = self._cells = None

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
        return {"elements": len(self.y), "runs": len(self.runs), "multiplies": self.multiplies, "distinct_products": len(self)}

    def total_pairs(self) -> int:
        return len(self.x) * len(self.y)

    def __len__(self):
        return self._sweep()[0]

    # -- products by key ------------------------------------------------------

    def _columns(self) -> tuple[array, array]:
        """(run of j, offset of j in its run) for every column j, indexed on
        first use."""
        if self._cols is None:
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
        t = self.cell_triple[i * len(self.runs) + run_of[j]]
        return self.triple_pid[t], self.triple_n0[t] + offset[j]

    def is_run(self, cols: list) -> bool:
        """True when the columns cols are consecutive elements, in order, of one b-run."""
        run_of, offset = self._cols or self._columns()
        t0 = offset[cols[0]]
        return self.runs[run_of[cols[0]]][t0 : t0 + len(cols)] == cols

    def factors_in(self, rows: Iterable[int], runs: Sequence[int], key: tuple[int, int]):
        """Each (i, j) with i in rows, j in one of the b-runs runs and X[i] * Y[j]
        named by key, in row order; a row meets each product at most once."""
        pid, n = key
        R, cell_triple, pids, n0, lens = len(self.runs), self.cell_triple, self.triple_pid, self.triple_n0, self.triple_len
        for i in rows:
            for r in runs:
                t = cell_triple[i * R + r]
                if pids[t] == pid and 0 <= n - n0[t] < lens[t]:
                    yield i, self.runs[r][n - n0[t]]

    def runs_of(self, cols: Iterable[int]) -> list[int]:
        """The b-runs that hold the columns cols, each once."""
        run_of = (self._cols or self._columns())[0]
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

    def _cells_of(self) -> tuple[array, array]:
        """(starts, order): the cells of triple t are order[starts[t] : starts[t + 1]],
        in row order; the inverse index, built on first use."""
        if self._cells is None:
            # a counting sort: the weights are the sizes of the buckets
            starts = array("i", accumulate(self.triple_weight, initial=0))
            fill = array("i", starts)
            order = array("i", [0]) * len(self.cell_triple)
            for c, t in enumerate(self.cell_triple):
                order[fill[t]] = c
                fill[t] += 1
            self._cells = starts, order
        return self._cells

    def factorizations(self, z: NormalForm) -> list[tuple[int, int]]:
        """Every (i, j) with X[i] * Y[j] = z, sorted; a row meets z at most once."""
        pid, n = self.key_of(z)
        meeting = self._meeting(pid, n)
        if not meeting:
            return []
        starts, order = self._cells_of()
        R, n0 = len(self.runs), self.triple_n0
        return sorted((c // R, self.runs[c % R][n - n0[t]]) for t in meeting for c in order[starts[t] : starts[t + 1]])

    def multiplicity(self, z: NormalForm) -> int:
        """The number of factorizations of z, from the weights of its triples."""
        return sum(self.triple_weight[t] for t in self._meeting(*self.key_of(z)))

    def _points(self, pid: int) -> list[tuple[NormalForm, list]]:
        """Every product of one prefix with its sorted factorizations."""
        starts, order = self._cells_of()
        R, cell_triple, n0 = len(self.runs), self.cell_triple, self.triple_n0
        at: dict = {}
        for c in sorted(c for t in self._triples(pid) for c in order[starts[t] : starts[t + 1]]):
            i, r = divmod(c, R)
            start = n0[cell_triple[c]]
            for t, j in enumerate(self.runs[r]):
                at.setdefault(start + t, []).append((i, j))
        return [(self.element_of((pid, n)), pairs) for n, pairs in at.items()]

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
                # the digit rule of words.parse: int() also takes '_', '+' and other scripts' digits
                if len(parts) == 3 and parts[0] in FAMILIES and all(re.fullmatch("-?[0-9]+", t) for t in parts[1:]):
                    labels.append(SliceLabel(parts[0], int(parts[1]), int(parts[2])))
                else:
                    labels.append(label_text)
            else:
                labels.append(None)
    return make_set(params, elements, labels if any_label else None)
