"""Claim-by-claim verification that the square of a built family has no
uniquely represented element.

The square T*T splits into products U*W of the spec's progressions, each a
table of the rows of U (a label names the element that plays (family, index,
j)) times the right family's progressions; most cell-slices match in place:

 * diagonal equalities    u_(v+1) W_c  =  u_(v) W_(c+1)   (same trailing j),
 * the two X_0 containments
       u_(v+1) X_0  inside  u_(v) X_1          (same j)
       u_(v)   X_0  inside  u_(v+1) X_(M-1)    (j shifted by +M),
 * Z-table corner elements u_(s) b^-D and u_(e) b^D relocated into Z*U,
   and for U = Z the two extreme powers b^(+-2D) relocated into mixed
   products; the four leftover Z-row slices embed into W*Z.

The leftover corner slices are handled by the chart of rewrite rows
(nup.chart); a row whose printed j-range fails and whose pattern's passes is
reported typo-suspect.  Every verified match marks both factorization pairs
it exhibits, a second factorization of each; marks covering all |T|^2 pairs
imply that no product is unique, which is cross-checked against the table.

The claims run in progression coordinates (Inventory), with no element
built.  As x (y b^t) = (x y) b^t, a claim along a run holds exactly when it
holds at its head.  A left pair (x, y) cancels, x W = y W' exactly when W =
x^-1 y W', so the family's b-steps decide a block for all its rows with one
multiply per pair of right runs (X_0 = b X_(M-1) is the relator); a Z slice
b^z W = W b^-z holds exactly when b^z w0 = w0 b^-z at its head.  The chart
names products by sets.RunProducts, one multiply per (row prefix, core, n
mod 2^k).  Marks are rectangles of rows times columns.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import groupby, islice
from typing import NamedTuple, Optional

from . import chart
from .families import FAMILIES, FamilySpec, SliceLabel, family_runs, progression_bounds, scan_family
from .sets import GroupSet, RunProducts, _from_b_key, b_key, b_runs
from .words import from_word

PASS, FAIL, TYPO_SUSPECT = "pass", "fail", "typo-suspect"
_POWERS_OF_B = (0, 0, ())  # the b-coordinate prefix of every b^n


class ClaimReport(NamedTuple):
    kind: str  # DiagonalEquality | X0Containment | ZEndpoint | ChartRow
    source: str  # stable identifier of the table pattern or chart row
    params: dict
    status: str  # pass | fail | typo-suspect
    count: int  # element equalities checked
    witness: Optional[dict] = None

    def as_dict(self) -> dict:
        out = {"source": self.source, "kind": self.kind, "params": self.params, "status": self.status, "count": self.count}
        return out if self.witness is None else {**out, "witness": self.witness}


def _at(label: tuple, t: int) -> tuple:
    """The label t further along its progression."""
    return label[0], label[1], label[2] + t


def _merge(intervals) -> list:
    """The union of intervals [c0, c1), as sorted disjoint ones."""
    out: list = []
    for c0, c1 in sorted(intervals):
        if out and c0 <= out[-1][1]:
            out[-1] = out[-1][0], max(out[-1][1], c1)
        else:
            out.append((c0, c1))
    return out


class Inventory:
    """The set in the spec's progression coordinates, and its marks.

    A label (fam, idx, j) inside its progression's bounds is the number
    offset[(fam, idx)] + j; other labels follow, in label order.  The set is
    its runs (c0, length, prefix, n0), by progression in members: number c0 +
    t has the b-coordinates (prefix, n0 + t).  A set it cannot check is
    refused before any scan.  A mark is a band (r0, r1, shared intervals) or
    a line."""

    def __init__(self, spec: FamilySpec, gset: Optional[GroupSet] = None):
        self.spec, self.params, self.M, self.q, self.p = spec, spec.params, 1 << spec.k, spec.q_eff, spec.p_eff
        self.bounds = progression_bounds(spec)
        self.top, self.D = self.bounds[("Y", 0)][1], self.bounds[("Z", 0)][1]  # the largest X/Y and Z exponents
        self.offset, self.members, end = {}, {}, 0
        for key, (lo, hi) in self.bounds.items():
            self.offset[key], end = end - lo, end + hi - lo + 1
        self.size, self._coord_of, self._index = end, None, None  # the canonical order, both ways
        if gset is None:  # one run per progression, only its head built
            for key, (head, ix) in zip(self.bounds, family_runs(spec).runs):
                self.members[key] = [(ix.start, len(ix), *b_key(head))]
        else:
            if gset.labels is None:
                raise ValueError("checker needs a labeled set")
            if not gset.elements:
                raise ValueError("checker needs a non-empty set")
            if gset.params != spec.params:
                raise ValueError(f"the set lies in the group k={gset.params.k}, not in the spec's group k={spec.k}")
            seen: dict = {}
            for i, lab in enumerate(gset.labels):
                if not isinstance(lab, SliceLabel) or lab.family not in FAMILIES:
                    raise ValueError(f"element {i} ({gset.elements[i]}) has label {lab!r}, not a slice label 'X|Y|Z INDEX J'")
                if lab in seen:
                    raise ValueError(f"elements {seen[lab]} and {i} share the label '{lab.family} {lab.index} {lab.j}'")
                seen[lab] = i
            outside = {lab: end + t for t, lab in enumerate(sorted(lab for lab in seen if self.number(*lab) is None))}
            self.size, self._coord_of = len(gset), [outside.get(lab) or self.number(*lab) for lab in gset.labels]
            for c, lab, w in sorted(zip(self._coord_of, gset.labels, gset.elements)):
                (prefix, n), runs = b_key(w), self.members.setdefault(lab[:2], [])
                if runs and runs[-1][2] == prefix and c - runs[-1][0] == n - runs[-1][3] == runs[-1][1]:
                    runs[-1] = (runs[-1][0], runs[-1][1] + 1, prefix, runs[-1][3])
                else:
                    runs.append((c, 1, prefix, n))
        self.runs = sorted(run for runs in self.members.values() for run in runs)
        self._starts = [run[0] for run in self.runs]
        self._kernel, self._memos, self._splits, self._cancelled = RunProducts(spec.k), {}, {}, {}  # read by named and cancelled
        self.bands, self._lines, self._w, self._layout = [], [], (end + self.size).bit_length(), None  # a line: r << 2w | c0 << w | c1

    def number(self, fam: str, idx: int, j: int) -> Optional[int]:
        """The number of a label within the spec's progressions, else None."""
        lo, hi = self.bounds.get((fam, idx), (1, 0))
        return self.offset[(fam, idx)] + j if lo <= j <= hi else None

    def find(self, fam: str, idx: int, j: int) -> Optional[tuple[int, int]]:
        """(number, elements left in its run) of a present label, else None."""
        c = self.number(fam, idx, j)
        r = -1 if c is None else bisect_right(self._starts, c) - 1
        left = self.runs[r][0] + self.runs[r][1] - c if r >= 0 else 0
        return (c, left) if left > 0 else None

    def key(self, c: int) -> tuple[tuple, int]:
        """The b-coordinates (prefix, n) of the element numbered c."""
        c0, _, prefix, n0 = self.runs[bisect_right(self._starts, c) - 1]
        return prefix, n0 + c - c0

    def element(self, c: int):
        return _from_b_key(self.params.k, *self.key(c))

    def pieces(self, a: tuple, b: tuple, length: int) -> list:
        """The t < length in pieces (t, n, ca, cb), each in one run of a + t and of b + t, from ca and cb."""
        t, out = 0, []
        while t < length:
            fa, fb = self.find(*_at(a, t)), self.find(*_at(b, t))
            n = min(fa[1], fb[1], length - t) if fa and fb else 1
            out.append((t, n, fa and fa[0], fb and fb[0]))
            t += n
        return out

    def cancelled(self, rights: list, length: int, g) -> tuple:
        """The columns, a and b side, of the right pairs (ra + t, rb + t), t <
        length, with ra = g rb, per piece; the others' count and first, cached."""
        key = (tuple(rights), length, g)
        if key not in self._cancelled:
            cols_a, cols_b, bad, first = [], [], 0, None
            for ra, rb in rights:
                for t, n, ca, cb in self.pieces(ra, rb, length):
                    if ca is not None and cb is not None and self.element(ca) == g * self.element(cb):
                        cols_a.append((ca, ca + n))
                        cols_b.append((cb, cb + n))
                    else:
                        bad, first = bad + n, first or (_at(ra, t), _at(rb, t))
            self._cancelled[key] = cols_a, cols_b, bad, first
        return self._cancelled[key]

    def named(self, prefix: tuple, n: int, h: int) -> tuple[int, int]:
        """The kernel's key (prefix id, n) of the element (prefix, n) times h."""
        split = self._splits.get(h) or self._splits.setdefault(h, self._kernel.split(self.element(h)))
        u, alpha, syl = prefix
        return self._kernel.key(self._memos.setdefault(prefix, {}), u, alpha, syl, n, split[(sum(syl) + n) & 1])

    def mark(self, r0: int, r1: int, cols: list) -> None:
        """Mark rows r0..r1-1 times the column intervals cols: a band, or a line for one row and interval."""
        if r1 - r0 > 1 or len(cols) > 1:
            self.bands.append((r0, r1, cols))
        else:
            self._lines += [r0 << 2 * self._w | c0 << self._w | c1 for c0, c1 in cols]
        self._layout = None

    def _cover(self) -> tuple[list, list]:
        """(r0, r1, union) per range of rows with one set of bands, each set merged once, and r0s; sorts the lines."""
        if self._layout is None:
            self._lines.sort()
            lists = {id(cols): cols for _, _, cols in self.bands}
            active, unions, segments, last = Counter(), {}, [], 0
            for r, d, i in sorted((r, d, id(cols)) for r0, r1, cols in self.bands for r, d in ((r0, 1), (r1, -1))):
                if r > last and active:
                    ids = frozenset(active)
                    if ids not in unions:
                        unions[ids] = _merge([iv for i in ids for iv in lists[i]])
                    segments.append((last, r, unions[ids]))
                active[i] += d
                if not active[i]:
                    del active[i]
                last = r
            self._layout = segments, [s[0] for s in segments]
        return self._layout

    def _row(self, r: int) -> list:
        """The union of every mark of row r."""
        segments, starts = self._cover()
        s, w = bisect_right(starts, r) - 1, self._w
        ours = self._lines[bisect_left(self._lines, r << 2 * w) : bisect_left(self._lines, r + 1 << 2 * w)]
        return _merge((segments[s][2] if s >= 0 and r < segments[s][1] else []) + [(x >> w & (1 << w) - 1, x & (1 << w) - 1) for x in ours])

    def covered_pairs(self) -> int:
        segments, starts = self._cover()
        covered = sum((r1 - r0) * (c1 - c0) for r0, r1, union in segments for c0, c1 in union)
        w, mask, row, end, base = self._w, (1 << self._w) - 1, -1, 0, ()
        for x in self._lines:  # by row, then start: each adds what its row's bands and earlier lines miss
            r, c0, c1 = x >> 2 * w, x >> w & mask, x & mask
            if r != row:
                s = bisect_right(starts, r) - 1
                row, end, base = r, 0, segments[s][2] if s >= 0 and r < segments[s][1] else ()
            if c1 > end:
                c0, end = max(c0, end), c1
                covered += c1 - c0 - sum(min(b1, c1) - max(b0, c0) for b0, b1 in base if b0 < c1 and c0 < b1)
        return covered

    def _canonical(self) -> tuple[list, dict]:
        """The number of each element in canonical order, and its inverse."""
        if self._index is None:
            self._coord_of = self._coord_of or sorted((c for c0, n, _, _ in self.runs for c in range(c0, c0 + n)), key=self.element)
            self._index = {c: i for i, c in enumerate(self._coord_of)}
        return self._coord_of, self._index

    def is_marked(self, i: int, j: int) -> bool:
        """Whether the pair (i, j), both canonical indices, is marked."""
        coord_of = self._canonical()[0]
        return any(c0 <= coord_of[j] < c1 for c0, c1 in self._row(coord_of[i]))

    def marked(self, i: int) -> set:
        """The columns marked in row i, both canonical indices."""
        coord_of, index = self._canonical()
        return {index[c] for c0, c1 in self._row(coord_of[i]) for c in range(c0, c1)}

    def uncovered(self, limit: int = 10) -> list:
        """The first unmarked pairs [i, j], row-major in canonical order."""
        rows = (i for i, r in enumerate(self._canonical()[0]) if sum(c1 - c0 for c0, c1 in self._row(r)) < self.size)
        return list(islice(([i, j] for i in rows for marked in [self.marked(i)] for j in range(self.size) if j not in marked), limit))


def _witness(inv: Inventory, la: tuple, ra: tuple, lb: tuple, rb: tuple) -> dict:
    """Why the claim la ra = lb rb, of four labels, fails."""
    pairs, found = [[*la, *ra], [*lb, *rb]], [inv.find(*spot) for spot in (la, ra, lb, rb)]
    missing = [name for name, f in zip(("left_a", "right_a", "left_b", "right_b"), found) if f is None]
    if missing:
        return {"reason": "missing element", "missing": missing, "pairs": pairs}
    x, y, z, w = (inv.element(f[0]) for f in found)
    return {"reason": "products differ", "left": str(x * y), "right": str(z * w), "pairs": pairs}


def _pair_claim(inv: Inventory, kind: str, source: str, params: dict, blocks) -> ClaimReport:
    """One report over blocks (la, lb, nl, rights, length): the claims (la + v)
    (ra + t) = (lb + v) (rb + t), v < nl, (ra, rb) in rights, t < length, with
    nl = 1 or la, lb neighbours in a progression.  A left pair (x, y) missing an
    element fails with one witness; else it cancels by g = x^-1 y, one g for a
    piece: its pairs overlap, so x and y share a run, y = x b^e."""
    count, fails, witness = 0, 0, None
    for la, lb, nl, rights, length in blocks:
        count += nl * len(rights) * length
        for v, m, ia, ib in inv.pieces(la, lb, nl) if rights else ():
            if ia is None or ib is None:
                fails += len(rights) * length
                witness = witness or _witness(inv, _at(la, v), rights[0][0], _at(lb, v), rights[0][1])
                continue
            (pa, na), (pb, nb) = inv.key(ia), inv.key(ib)
            g = _from_b_key(inv.params.k, _POWERS_OF_B, nb - na) if pa == pb else ~inv.element(ia) * inv.element(ib)
            cols_a, cols_b, bad, first = inv.cancelled(rights, length, g)
            inv.mark(ia, ia + m, cols_a)
            inv.mark(ib, ib + m, cols_b)
            if bad:
                fails += bad * m
                witness = witness or _witness(inv, _at(la, v), first[0], _at(lb, v), first[1])
    return ClaimReport(kind, source, params, PASS if fails == 0 else FAIL, count, witness)


def _slice_claim(inv: Inventory, params: dict, zl: tuple, w: tuple, length: int, zr: tuple) -> ClaimReport:
    """The claims zl (w + t) = (w + t) zr, t < length, decided per piece of w
    when zr is a b^m, since (w0 b^t) b^m = (w0 b^m) b^t; else per element."""
    fails, witness, fl, fr = 0, None, inv.find(*zl), inv.find(*zr)
    pieces = inv.pieces(w, w, length)
    if fr is None or inv.key(fr[0])[0] != _POWERS_OF_B:
        pieces = [(t + u, 1, cw if cw is None else cw + u, None) for t, n, cw, _ in pieces for u in range(n)]
    for t, n, cw, _ in pieces:
        if fl and fr and cw is not None and b_key(inv.element(fl[0]) * inv.element(cw)) == b_key(inv.element(cw) * inv.element(fr[0])):
            inv.mark(fl[0], fl[0] + 1, [(cw, cw + n)])
            for c in range(cw, cw + n):  # a line per row: a band would give these rows sets of bands of their own
                inv.mark(c, c + 1, [(fr[0], fr[0] + 1)])
        else:
            fails += n
            witness = witness or _witness(inv, zl, _at(w, t), _at(w, t), zr)
    return ClaimReport("ZEndpoint", f"zslice:Z({zl[2]:+d})*{w[0]}{w[1]}", params, PASS if fails == 0 else FAIL, length, witness)


def check_diagonals(inv: Inventory, family: str) -> list[ClaimReport]:
    """Verify the in-table matching pattern of every U * <family> product, family X, Y or Z."""
    M, (lo, hi) = inv.M, inv.bounds[(family, 1 if family == "X" else 0)]
    if family == "Z":  # the single Z progression steps along j
        rights, length = [(("Z", 0, lo), ("Z", 0, lo + 1))], hi - lo
    else:  # column c against column c + 1 at the same j
        rights, length = [((family, c, lo), (family, c + 1, lo)) for c in range(1 if family == "X" else 0, M - 1)], hi - lo + 1
    reports: list[ClaimReport] = []
    for (ufam, uidx), (s, e) in inv.bounds.items():
        # the left pairs (u_(v+1), u_(v)) and (u_(v), u_(v+1)), s <= v < e
        down, up = ((ufam, uidx, s + 1), (ufam, uidx, s), e - s), ((ufam, uidx, s), (ufam, uidx, s + 1), e - s)
        params = {"left": [ufam, uidx], "right_family": family}
        reports.append(_pair_claim(inv, "DiagonalEquality", f"table:{ufam}{uidx}*{family}", params, [(*down, rights, length)]))
        if family == "X":  # the two short-column containments
            zlo, zhi = inv.bounds[("X", 0)]
            params = {"left": [ufam, uidx], "containment": "u(v+1) X0 in u(v) X1"}
            lower, upper = [(("X", 0, zlo), ("X", 1, zlo))], [(("X", 0, zlo), ("X", M - 1, zlo + M))]
            reports.append(_pair_claim(inv, "X0Containment", f"table:{ufam}{uidx}*X:lower", params, [(*down, lower, zhi - zlo + 1)]))
            params = {"left": [ufam, uidx], "containment": "u(v) X0 in u(v+1) X(M-1), j shifted by M"}
            reports.append(_pair_claim(inv, "X0Containment", f"table:{ufam}{uidx}*X:upper", params, [(*up, upper, zhi - zlo + 1)]))
    return reports


def check_z_endpoints(inv: Inventory) -> list[ClaimReport]:
    """Relocate the table-corner elements of every U*Z product, the extreme
    powers b^(+-2D) of Z*Z, and embed the four leftover Z-row slices."""
    M, D, q = inv.M, inv.D, inv.q
    reports: list[ClaimReport] = []
    for (ufam, uidx), (s, e) in list(inv.bounds.items())[:-1]:  # the X and Y progressions
        blocks = [((ufam, uidx, row), ("Z", 0, -zc), 1, [(("Z", 0, zc), (ufam, uidx, row))], 1) for row, zc in ((s, -D), (e, D))]
        reports.append(_pair_claim(inv, "ZEndpoint", f"endpoints:{ufam}{uidx}*Z", {"left": [ufam, uidx], "relocated_to": "Z*U"}, blocks))
    # corners of the Z*Z table: b^(-2D) and b^(2D)
    y_top, x_bottom = ("Y", 0, inv.top), ("X", M - 1, -q + 1)
    blocks = [(("Z", 0, -D), y_top, 1, [(("Z", 0, -D), x_bottom)], 1), (("Z", 0, D), x_bottom, 1, [(("Z", 0, D), y_top)], 1)]
    reports.append(_pair_claim(inv, "ZEndpoint", "endpoints:Z*Z", {"left": ["Z", 0], "relocated_to": "mixed X/Y products"}, blocks))
    # leftover slices of the Z-row tables embed into W * Z
    for (wfam, widx, zexp) in (("Y", 0, -D), ("Y", M - 1, D), ("X", 1, -D), ("X", M - 1, D)):
        lo, hi = inv.bounds[(wfam, widx)]
        params = {"left": ["Z", 0, zexp], "slice": [wfam, widx], "relocated_to": f"{wfam}{widx}*Z"}
        reports.append(_slice_claim(inv, params, ("Z", 0, zexp), (wfam, widx, lo), hi - lo + 1, ("Z", 0, -zexp)))
    return reports


def _shown(x: int):
    """x, or, past the digits that str() converts, the exact string '2^e + r'."""
    limit, e = getattr(sys, "get_int_max_str_digits", int)(), x.bit_length() - 1
    return x if not limit or e < 3 * limit or x < 10**limit else f"2^{e} + {_shown(x - (1 << e))}"


def _alternatives(inv: Inventory, head: tuple, si: int, run, target, residue) -> list:
    """For each source pair (si, run[t]) of a slice with the product keys (pid,
    n + t), head = (pid, n): the first other pair (u', w') of the target block
    with that product, by left rows in scope, or None.  A row times a member
    run is an interval of keys, and pairs the slice elements there unpaired."""
    (pid, n), (tgt_left, tgt_right) = head, target
    (lo, hi), off, step = inv.bounds[tgt_left], inv.offset[tgt_left], 1 if residue is None else inv.M
    lo, hi = lo + off + (0 if residue is None else (residue - lo) % step), hi + off
    members, size = inv.members.get(tgt_right, []), len(run)
    found, after, left = [None] * size, list(range(size + 1)), size  # after[t] leads to the first unpaired t' >= t, by path halving
    for c0, length, prefix, n0 in inv.members.get(tgt_left, []):
        first = max(c0, lo)
        for li in range(first + (lo - first) % step, min(c0 + length, hi + 1), step):
            for h, h_len, _, _ in members:
                p, m = inv.named(prefix, n0 + li - c0, h)
                start = m - n  # the member run's head meets the slice element t = start
                if p != pid or start >= size or start + h_len <= 0:
                    continue
                t, end = max(start, 0), min(start + h_len, size)
                while True:
                    while after[t] != t:
                        after[t] = t = after[after[t]]
                    if t >= end:
                        break
                    w = h + t - start
                    if li != si or w != run[t]:
                        found[t] = li, w
                        after[t] = t + 1
                        left -= 1
                    t += 1
            if not left:
                return found
    return found


def _lines(inv: Inventory, found: list) -> None:
    """Mark the pairs (row, column) of found, None skipped, a line per stretch of one row and consecutive columns."""
    r = c0 = c1 = None
    for pair in found + [None]:
        if pair is not None and pair[0] == r and pair[1] == c1:
            c1 += 1
            continue
        if r is not None:
            inv.mark(r, r + 1, [(c0, c1)])
        r, c0, c1 = (pair[0], pair[1], pair[1] + 1) if pair else (None, None, None)


def check_chart(inv: Inventory) -> list[ClaimReport]:
    """Verify every instantiated chart row against the set."""
    reports: list[ClaimReport] = []
    M = inv.M
    for row in chart.CHART:
        for n in chart.VAR_VALUES[row.var](M):
            ctx = chart.context(inv, n)
            (lfam, lidx, lexp), (rfam, ridx), (tgt_left, tgt_right) = row.left(ctx), row.right(ctx), row.target(ctx)
            left, pattern_rng = inv.find(lfam, lidx, lexp), row.rng(ctx)
            printed_rng = row.printed(ctx) if (row.printed and inv.spec.scaled) else pattern_rng  # it deviates for scaled sets only
            params = {"slice": [lfam, lidx, lexp], "right": [rfam, ridx], "var": n, "printed_range": [_shown(x) for x in printed_rng],
                      "pattern_range": list(pattern_rng), "target": [list(tgt_left), list(tgt_right)]}
            source = f"chart:{row.tag}"
            rlo, rhi = inv.top - M + 1 if row.src == "short" else inv.bounds[(rfam, ridx)][0], inv.bounds[(rfam, ridx)][1]
            pieces = inv.pieces((rfam, ridx, rlo), (rfam, ridx, rlo), rhi - rlo + 1)
            missing = [t for t, _, c, _ in pieces if c is None]
            if left is None or missing:
                witness = {"reason": "missing slice element", **({"j": rlo + missing[0]} if left else {})}
                reports.append(ClaimReport("ChartRow", source, params, FAIL, 0, witness))
                continue
            li, cols = left[0], range(pieces[0][2], pieces[0][2] + rhi - rlo + 1)
            # the columns' first b-run in b-order: all of them when they are one as a set
            run = cols if len(pieces) == 1 else [cols[t] for t in b_runs([inv.element(c) for c in cols])[0]]
            head = inv.named(*inv.key(li), run[0])

            def range_matches(rng):  # a range of the slice's length whose shape at lo keys the slice's head
                lo, hi = rng
                prefix, n = b_key(from_word(row.shape(ctx, lo), inv.params)) if hi - lo + 1 == len(run) == len(cols) else (None, 0)
                return (inv._kernel.prefix_id.get(prefix), n) == head

            if range_matches(printed_rng):
                used, suspect = printed_rng, False
            elif printed_rng != pattern_rng and range_matches(pattern_rng):
                used, suspect = pattern_rng, True
            else:
                slice_elements = [str(w) for w in sorted(inv.element(li) * inv.element(c) for c in cols)[:4]]
                witness = {"reason": "rewritten slice does not match the claimed range", "printed_range": params["printed_range"],
                           "pattern_range": list(pattern_rng), "slice_elements": slice_elements}
                reports.append(ClaimReport("ChartRow", source, params, FAIL, len(cols), witness))
                continue
            params["range_used"] = list(used)  # a range that matched has the slice's length
            found = _alternatives(inv, head, li, run, (tgt_left, tgt_right), row.residue)
            alts = found if run is cols else list(map(dict(zip(run, found)).get, cols))
            witness, fails = None, alts.count(None)
            if fails:
                c, index = cols[alts.index(None)], inv._canonical()[1]
                element = str(inv.element(li) * inv.element(c))
                witness = {"reason": "no alternative factorization in target block", "element": element, "source_pair": [index[li], index[c]]}
            inv.mark(li, li + 1, [(c, c + 1) for c, alt in zip(cols, alts) if alt] if fails else [(cols[0], cols[-1] + 1)])
            _lines(inv, found)
            status = FAIL if fails else (TYPO_SUSPECT if suspect else PASS)
            reports.append(ClaimReport("ChartRow", source, params, status, len(cols), witness))
    return reports


def run_all_claims(inv: Inventory) -> list[ClaimReport]:
    return [c for family in ("Y", "X", "Z") for c in check_diagonals(inv, family)] + check_z_endpoints(inv) + check_chart(inv)


def verify_family(spec: FamilySpec, gset: Optional[GroupSet] = None) -> dict:
    """scan_family's report, of the family's runs or of gset, with every claim,
    their coverage, the cross-checks (all claims passing with full coverage
    implies no unique product) and the exit status; build_s is the Inventory's."""
    t0 = time.perf_counter()
    inv = Inventory(spec, gset)
    t1 = time.perf_counter()
    uniques, report = scan_family(spec, gset)[2:]  # the table is freed before the claims
    t2 = time.perf_counter()
    claims = [c.as_dict() for c in run_all_claims(inv)]
    report["timings"].update(build_s=round(t1 - t0, 6), claims_s=round(time.perf_counter() - t2, 6))
    counts = Counter(c["status"] for c in claims)
    covered, total = inv.covered_pairs(), inv.size ** 2
    report.update(
        spec=report["parameters"], claims=claims, coverage=covered / total, covered_pairs=covered, total_pairs=total,
        claims_summary={"pass": counts[PASS], "fail": counts[FAIL], "typo_suspect": counts[TYPO_SUSPECT]},
        soundness_ok=not any(inv.is_marked(i, j) for _, (i, j) in uniques),  # a marked pair has a second factorization
        consistent=counts[FAIL] > 0 or covered < total or not uniques,
        uncovered_sample=inv.uncovered() if covered < total else [],
        wall_time_s=round(time.perf_counter() - t0, 6),
        exit_status=0 if counts[FAIL] == counts[TYPO_SUSPECT] == 0 and covered == total and not uniques else 1,
    )
    return report
