"""Claim-by-claim verification that the square of a built family has no
uniquely represented element.

The square T*T splits into products U*W of the spec's progressions, with
the j ranges of families.progression_bounds; a label only names the element
that plays (family, index, j).  Each product is a table whose rows are the
elements of U and whose columns are the progressions of the right family
(single elements for Z), and almost every cell-slice is matched inside its
own table:

 * diagonal equalities    u_(v+1) W_c  =  u_(v) W_(c+1)   (same trailing j),
 * the two X_0 containments
       u_(v+1) X_0  inside  u_(v) X_1          (same j)
       u_(v)   X_0  inside  u_(v+1) X_(M-1)    (j shifted by +M),
 * Z-table corner elements u_(s) b^-D and u_(e) b^D relocated into Z*U,
   and for U = Z the two extreme powers b^(+-2D) relocated into mixed
   products; the four leftover Z-row slices embed into W*Z.

The leftover corner slices are handled by a fixed chart of rewrite rows:
each row names a slice, a rewritten shape with a claimed j-range, and a
target product block that must contain it.  A row is verified by (a)
checking that the rewritten shape over the claimed j-range reproduces the
slice exactly, as a set of group elements, and (b) locating every slice
element inside the target block among the left factors whose trailing
exponent is compatible with the shape (those congruent to a fixed residue
mod M; only such factors can collapse to the shape).

Two chart rows carry printed j-ranges that do not fit the pattern of their
siblings; the checker tests the printed range first and only on failure
retests the pattern-consistent range, reporting the row as typo-suspect.  It
never silently corrects.

Every verified match marks both factorization pairs it exhibits; marks
covering the full |T|^2 table imply (each records a second, distinct
factorization of its product) that no element of the square is uniquely
represented, which is cross-checked against the factorization table.

Each left pair of a diagonal or containment claim is decided on its own.
A b-step u_(v+1) = u_(v) b cancels: u_(v+1) W_c = u_(v) W_(c+1) holds
exactly when b W_c = W_(c+1), and the upper containment exactly when X_0[j]
= b X_(M-1)[j+M] (the relator), one multiply by b per right factor, and
its rows reference the block's shared column masks.  Any other left pair
is walked.  A chart slice u W is one b-run exactly when its columns W are
as a set, and u times their head keys it; a shape ends in b^j, so its range
lo..hi has the b-coordinates (prefix, n + t) of its start (prefix, n).
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from functools import reduce
from itertools import groupby, pairwise
from operator import or_
from typing import Callable, NamedTuple, Optional

from .families import FAMILIES, FamilySpec, SliceLabel, build_family, progression_bounds, scan_family
from .sets import GroupSet, b_key, b_runs
from .words import from_word, generator

PASS = "pass"
FAIL = "fail"
TYPO_SUSPECT = "typo-suspect"
_NONE: dict = {}  # the progression of an absent label


class ClaimReport(NamedTuple):
    kind: str  # DiagonalEquality | X0Containment | ZEndpoint | ChartRow
    source: str  # stable identifier of the table pattern or chart row
    params: dict
    status: str  # pass | fail | typo-suspect
    count: int  # element equalities checked
    witness: Optional[dict] = None

    def as_dict(self) -> dict:
        out = {
            "source": self.source,
            "kind": self.kind,
            "params": self.params,
            "status": self.status,
            "count": self.count,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class Inventory:
    """Labeled-set view used by all claims: the spec's progressions with
    their j ranges (bounds), element lookup by label, coverage, and, from
    one pass over the set's b-runs, each element's successor x b (_next) and
    each progression's maximal b-runs in b_runs order (runs).  Bit j of row
    i marks the pair (i, j); a row is its single marks (_rows) ORed, when
    read, with the masks of _steps it references (_shared).  A set it cannot
    check is refused before any scan; a missing element fails its claims."""

    def __init__(self, spec: FamilySpec, gset: GroupSet):
        if gset.labels is None:
            raise ValueError("checker needs a labeled set")
        if not gset.elements:
            raise ValueError("checker needs a non-empty set")
        if gset.params != spec.params:
            raise ValueError(f"the set lies in the group k={gset.params.k}, not in the spec's group k={spec.k}")
        self.prog: dict[tuple[str, int], dict[int, int]] = {}
        for i, lab in enumerate(gset.labels):
            if not isinstance(lab, SliceLabel) or lab.family not in FAMILIES:
                raise ValueError(f"element {i} ({gset.elements[i]}) has label {lab!r}, not a slice label 'X|Y|Z INDEX J'")
            js = self.prog.setdefault((lab.family, lab.index), {})
            if lab.j in js:
                raise ValueError(f"elements {js[lab.j]} and {i} share the label '{lab.family} {lab.index} {lab.j}'")
            js[lab.j] = i
        self.spec = spec
        self.gset = gset
        self.params = spec.params
        self.M = 1 << spec.k
        self.q = spec.q_eff
        self.p = spec.p_eff
        self.bounds = progression_bounds(spec)
        self.top = self.bounds[("Y", 0)][1]  # largest X/Y trailing exponent
        self.D = self.bounds[("Z", 0)][1]
        self.size = len(gset)
        self._rows, self._shared = [0] * self.size, [()] * self.size
        self._next = array("i", [-1]) * self.size  # els[i] * b = els[_next[i]], or -1
        self.runs, self._steps = {}, {}  # read by _alternatives and cancelled
        for run in b_runs(gset.elements):
            for i, j in pairwise(run):
                self._next[i] = j
            for key, part in groupby(run, lambda i: gset.labels[i][:2]):
                self.runs.setdefault(key, []).append(list(part))

    def lookup(self, fam: str, idx: int, j: int) -> Optional[int]:
        return self.prog.get((fam, idx), _NONE).get(j)

    def cancelled(self, rights, length: int, up: bool) -> tuple[int, int, list]:
        """For a left pair (u, u b) when up, else (u b, u): the column bits a
        and b of the right pairs shifted by t < length with right_a = b
        right_b (b right_a = right_b), and the other shifted pairs, in order;
        cached per rights, length and direction."""
        key = (tuple(rights), length, up)
        if key not in self._steps:
            els, b, cols, bad = self.gset.elements, generator(self.params, "b"), [], []
            for (fa, ia, ja), (fb, ib, jb) in rights:
                for t in range(length):
                    ca, cb = self.lookup(fa, ia, ja + t), self.lookup(fb, ib, jb + t)
                    if ca is None or cb is None or (els[ca] != b * els[cb] if up else b * els[ca] != els[cb]):
                        bad.append(((fa, ia, ja + t), (fb, ib, jb + t)))
                    else:
                        cols.append((ca, cb))
            self._steps[key] = sum(1 << ca for ca, _ in cols), sum(1 << cb for _, cb in cols), bad
        return self._steps[key]

    def mark(self, i: int, j: int) -> None:
        self._rows[i] |= 1 << j

    def row(self, i: int) -> int:
        return reduce(or_, self._shared[i], self._rows[i])

    def is_marked(self, i: int, j: int) -> bool:
        return bool(self.row(i) >> j & 1)

    def covered_pairs(self) -> int:
        return sum(self.row(i).bit_count() for i in range(self.size))

    def coverage(self) -> float:
        return self.covered_pairs() / (self.size * self.size)

    def uncovered(self, limit: int = 10) -> list[tuple[int, int]]:
        out = []
        full = (1 << self.size) - 1
        for i in range(self.size):
            gaps = full & ~self.row(i)
            while gaps and len(out) < limit:
                j = (gaps & -gaps).bit_length() - 1
                out.append((i, j))
                gaps &= gaps - 1
        return out


def _pair_witness(inv: Inventory, left_a, right_a, left_b, right_b) -> Optional[dict]:
    """Verify product(left_a, right_a) == product(left_b, right_b) with
    distinct index pairs; mark both pairs.  Returns a witness dict on
    failure, None on success.  Arguments are (family, index, j) triples."""
    ia, ja, ib, jb = (inv.lookup(*spot) for spot in (left_a, right_a, left_b, right_b))
    pairs = [list(left_a) + list(right_a), list(left_b) + list(right_b)]
    missing = [name for name, i in (("left_a", ia), ("right_a", ja), ("left_b", ib), ("right_b", jb)) if i is None]
    if missing:
        return {"reason": "missing element", "missing": missing, "pairs": pairs}
    za, zb = inv.gset[ia] * inv.gset[ja], inv.gset[ib] * inv.gset[jb]
    if za != zb:
        return {"reason": "products differ", "left": str(za), "right": str(zb), "pairs": pairs}
    if (ia, ja) == (ib, jb):
        return {"reason": "identical factorization", "pairs": pairs[:1]}
    inv.mark(ia, ja)
    inv.mark(ib, jb)
    return None


def _pair_claim(inv: Inventory, kind: str, source: str, params: dict, blocks) -> ClaimReport:
    """One report over blocks (lefts, rights, length): for every left pair
    (left_a, left_b), right pair (right_a, right_b) and t < length, the claim
    left_a * right_a = left_b * right_b with both right labels shifted by t.
    Factors are labels (family, index, j).  Each left pair is decided on its
    own: a missing element fails all its claims with one witness, a b-step
    cancels (Inventory.cancelled, read once per block and direction), and
    any other pair is walked.  The witness is the first failure."""
    count, fails, witness = 0, 0, None
    for lefts, rights, length in blocks:
        count += len(lefts) * len(rights) * length
        steps: dict = {}
        for la, lb in lefts if rights else ():
            ia, ib = inv.lookup(*la), inv.lookup(*lb)
            if ia is None or ib is None:
                fails += len(rights) * length
                witness = witness or _pair_witness(inv, la, rights[0][0], lb, rights[0][1])
            elif (up := inv._next[ia] == ib) or inv._next[ib] == ia:
                if up not in steps:
                    steps[up] = inv.cancelled(rights, length, up)
                cols_a, cols_b, bad = steps[up]
                inv._shared[ia] += (cols_a,)
                inv._shared[ib] += (cols_b,)
                if bad:
                    fails += len(bad)
                    witness = witness or _pair_witness(inv, la, bad[0][0], lb, bad[0][1])
            else:
                for ra, rb in rights:
                    for t in range(length):
                        w = _pair_witness(inv, la, (*ra[:2], ra[2] + t), lb, (*rb[:2], rb[2] + t))
                        if w is not None:
                            fails += 1
                            witness = witness or w
    return ClaimReport(kind, source, params, PASS if fails == 0 else FAIL, count, witness)


def check_diagonals(inv: Inventory, family: str) -> list[ClaimReport]:
    """Verify the in-table matching pattern of every U * <family> product."""
    if family not in ("X", "Y", "Z"):
        raise ValueError("family must be X, Y or Z")
    M = inv.M
    # the diagonal pairs column c at j with column c2 at j + dj; the single Z
    # progression steps along j instead
    if family == "Z":
        cols, (jlo, jhi) = [(0, 0, 1)], (-inv.D, inv.D - 1)
    elif family == "Y":
        cols, (jlo, jhi) = [(c, c + 1, 0) for c in range(M - 1)], inv.bounds[("Y", 0)]
    else:
        cols, (jlo, jhi) = [(c, c + 1, 0) for c in range(1, M - 1)], inv.bounds[("X", 1)]
    rights = [((family, c, jlo), (family, c2, jlo + dj)) for c, c2, dj in cols]
    reports: list[ClaimReport] = []
    for (ufam, uidx), (s, e) in inv.bounds.items():
        down = [((ufam, uidx, v + 1), (ufam, uidx, v)) for v in range(s, e)]
        params = {"left": [ufam, uidx], "right_family": family}
        reports.append(_pair_claim(inv, "DiagonalEquality", f"table:{ufam}{uidx}*{family}", params, [(down, rights, jhi - jlo + 1)]))
        if family != "X":
            continue
        # the two short-column containments
        zlo, zhi = inv.bounds[("X", 0)]
        lower = [(down, [(("X", 0, zlo), ("X", 1, zlo))], zhi - zlo + 1)]
        params = {"left": [ufam, uidx], "containment": "u(v+1) X0 in u(v) X1"}
        reports.append(_pair_claim(inv, "X0Containment", f"table:{ufam}{uidx}*X:lower", params, lower))
        up = [(lb, la) for la, lb in down]
        upper = [(up, [(("X", 0, zlo), ("X", M - 1, zlo + M))], zhi - zlo + 1)]
        params = {"left": [ufam, uidx], "containment": "u(v) X0 in u(v+1) X(M-1), j shifted by M"}
        reports.append(_pair_claim(inv, "X0Containment", f"table:{ufam}{uidx}*X:upper", params, upper))
    return reports


def check_z_endpoints(inv: Inventory) -> list[ClaimReport]:
    """Relocate the table-corner elements of every U*Z product, the extreme
    powers b^(+-2D) of Z*Z, and embed the four leftover Z-row slices."""
    M, D, q = inv.M, inv.D, inv.q
    top = inv.top
    reports: list[ClaimReport] = []
    for (ufam, uidx), (s, e) in inv.bounds.items():
        if ufam == "Z":
            continue
        blocks = [([((ufam, uidx, row), ("Z", 0, -zc))], [(("Z", 0, zc), (ufam, uidx, row))], 1) for row, zc in ((s, -D), (e, D))]
        params = {"left": [ufam, uidx], "relocated_to": "Z*U"}
        reports.append(_pair_claim(inv, "ZEndpoint", f"endpoints:{ufam}{uidx}*Z", params, blocks))
    # corners of the Z*Z table: b^(-2D) and b^(2D)
    y_top, x_bottom = ("Y", 0, top), ("X", M - 1, -q + 1)
    blocks = [([(("Z", 0, -D), y_top)], [(("Z", 0, -D), x_bottom)], 1), ([(("Z", 0, D), x_bottom)], [(("Z", 0, D), y_top)], 1)]
    params = {"left": ["Z", 0], "relocated_to": "mixed X/Y products"}
    reports.append(_pair_claim(inv, "ZEndpoint", "endpoints:Z*Z", params, blocks))
    # leftover slices of the Z-row tables embed into W * Z
    for (wfam, widx, zexp) in (("Y", 0, -D), ("Y", M - 1, D), ("X", 1, -D), ("X", M - 1, D)):
        lo, hi = inv.bounds[(wfam, widx)]
        blocks = [([(("Z", 0, zexp), (wfam, widx, j))], [((wfam, widx, j), ("Z", 0, -zexp))], 1) for j in range(lo, hi + 1)]
        params = {"left": ["Z", 0, zexp], "slice": [wfam, widx], "relocated_to": f"{wfam}{widx}*Z"}
        reports.append(_pair_claim(inv, "ZEndpoint", f"zslice:Z({zexp:+d})*{wfam}{widx}", params, blocks))
    return reports


# -- chart of the leftover corner slices ---------------------------------------
#
# Row fields: var picks the instantiation set for the free index n; left /
# right give the slice (left element by family, index, trailing exponent;
# right is a whole progression); src is "full" or "short" (short = the top M
# trailing exponents of X_1, the part not already matched by the lower
# containment); shape builds the rewritten word for a given j; rng is the
# pattern-consistent claimed j-range and printed overrides it where the
# published chart deviates; target names the product block that must contain
# the rewritten slice, and residue constrains which left factors of that
# block are in scope (left trailing exponent congruent to it mod M; None = no
# constraint).


class _Row(NamedTuple):
    tag: str
    var: str
    left: Callable
    right: Callable
    src: str
    shape: Callable
    rng: Callable
    target: Callable
    residue: Optional[int]
    printed: Optional[Callable] = None


def _tok(*pairs):
    return tuple((g, e) for g, e in pairs if e != 0)


def _lo(s1: int, mid: int, s2: int) -> Callable:
    """The shape b^n a^(s1 p) b^mid a^(s2 p) b^j."""
    return lambda c, j: _tok(("b", c.n), ("a", s1 * c.p), ("b", mid), ("a", s2 * c.p), ("b", j))


def _hi(s: int) -> Callable:
    """The shape a^(s p) b^j."""
    return lambda c, j: _tok(("a", s * c.p), ("b", j))


_CHART: list[_Row] = [
    _Row("x(0,lo)X1", "zero", lambda c: ("X", 0, -c.q + 1), lambda c: ("X", 1), "short", _lo(1, 1, 1),
         lambda c: (c.T1 - c.M, c.T1 - 1), lambda c: (("Y", c.n), ("Y", 0)), 1),
    _Row("x(0,hi)X(M-1)", "zero", lambda c: ("X", 0, c.top - c.M), lambda c: ("X", c.M - 1), "full", _hi(-2),
         lambda c: (2 - c.T1, 1), lambda c: (("Y", c.M - 1), ("Y", c.M - 1)), 1),
    _Row("x(l,lo)X1", "l", lambda c: ("X", c.n, -c.q + 1), lambda c: ("X", 1), "short", _lo(1, 1, 1),
         lambda c: (c.T1 - c.M, c.T1 - 1), lambda c: (("Y", c.n), ("Y", 0)), 1),
    _Row("x(l,hi)X(M-1)", "l", lambda c: ("X", c.n, c.top), lambda c: ("X", c.M - 1), "full", _hi(2),
         lambda c: (c.n + 2 - c.T1 - c.M, c.n + 1 - c.M), lambda c: (("Y", c.n - 1), ("Y", c.M - 1)), 1),
    _Row("x(m,lo)X1", "m", lambda c: ("X", c.n, -c.q + 1), lambda c: ("X", 1), "short", _lo(-1, 1, -1),
         lambda c: (c.T1 - c.M, c.T1 - 1), lambda c: (("Y", c.n), ("Y", 0)), 1,
         printed=lambda c: (c.T1 - c.M, c.M + 2 * c.q - 1)),
    _Row("x(m,hi)X(M-1)", "m", lambda c: ("X", c.n, c.top), lambda c: ("X", c.M - 1), "full", _hi(-2),
         lambda c: (c.n + 2 - c.T1 - c.M, c.n + 1 - c.M), lambda c: (("Y", c.n - 1), ("Y", c.M - 1)), 1),
    _Row("x(M-1,lo)X1", "last", lambda c: ("X", c.n, -c.q + 1), lambda c: ("X", 1), "short", _lo(1, 1, 1),
         lambda c: (c.T1 - c.M, c.T1 - 1), lambda c: (("Y", c.n), ("Y", 0)), 1),
    _Row("x(M-1,hi)X(M-1)", "last", lambda c: ("X", c.n, c.top), lambda c: ("X", c.M - 1), "full", _hi(2),
         lambda c: (1 - c.T1, 0), lambda c: (("Y", c.M - 2), ("Y", c.M - 1)), 1),
    _Row("y(n,lo)X1", "n", lambda c: ("Y", c.n, -c.q + 2), lambda c: ("X", 1), "short", _lo(1, 2, -1),
         lambda c: (c.T1 - c.M, c.T1 - 1), lambda c: (("X", c.n), ("Y", 1)), 1),
    _Row("y(n,hi)X(M-1)", "n", lambda c: ("Y", c.n, c.top), lambda c: ("X", c.M - 1), "full", _hi(0),
         lambda c: (c.n + 2 - c.T1 - c.M, c.n + 1 - c.M), lambda c: (("Z", 0), ("Z", 0)), None),
    _Row("y(0,lo)Y0", "zero", lambda c: ("Y", 0, -c.q + 2), lambda c: ("Y", 0), "full", _lo(1, 1, 1),
         lambda c: (1, c.T1 - 1), lambda c: (("X", 0), ("X", 1)), 0),
    _Row("y(0,hi)Y(M-1)", "zero", lambda c: ("Y", 0, c.top), lambda c: ("Y", c.M - 1), "full", _hi(2),
         lambda c: (3 - c.T1 - c.M, 1 - c.M), lambda c: (("X", 1), ("X", c.M - 1)), 1),
    _Row("y(l,lo)Y0", "l", lambda c: ("Y", c.n, -c.q + 2), lambda c: ("Y", 0), "full", _lo(1, 1, 1),
         lambda c: (1, c.T1 - 1), lambda c: (("X", c.n), ("X", 1)), 0),
    _Row("y(l,hi)Y(M-1)", "l", lambda c: ("Y", c.n, c.top), lambda c: ("Y", c.M - 1), "full", _hi(-2),
         lambda c: (c.n + 3 - c.T1 - c.M, c.n + 1 - c.M), lambda c: (("X", c.n + 1), ("X", c.M - 1)), 1),
    _Row("y(m,lo)Y0", "m", lambda c: ("Y", c.n, -c.q + 2), lambda c: ("Y", 0), "full", _lo(1, 1, 1),
         lambda c: (1, c.T1 - 1), lambda c: (("X", c.n), ("X", 1)), 0),
    _Row("y(m,hi)Y(M-1)", "m", lambda c: ("Y", c.n, c.top), lambda c: ("Y", c.M - 1), "full", _hi(2),
         lambda c: (c.n + 3 - c.T1 - c.M, c.n + 1 - c.M), lambda c: (("X", c.n + 1), ("X", c.M - 1)), 1),
    _Row("y(M-1,lo)Y0", "last", lambda c: ("Y", c.n, -c.q + 2), lambda c: ("Y", 0), "full", _lo(1, 1, 1),
         lambda c: (1, c.T1 - 1), lambda c: (("X", c.M - 1), ("X", 1)), 0,
         printed=lambda c: (1, 2**c.q + 2 * c.q - 1)),
    _Row("y(M-1,hi)Y(M-1)", "last", lambda c: ("Y", c.n, c.top), lambda c: ("Y", c.M - 1), "full", _hi(-2),
         lambda c: (2 - c.T1, 0), lambda c: (("X", 0), ("X", c.M - 1)), 1),
    _Row("x(n,lo)Y0", "n", lambda c: ("X", c.n, -c.q + 1), lambda c: ("Y", 0), "full", _hi(0),
         lambda c: (c.n + 1, c.n + c.T1 - 1), lambda c: (("Z", 0), ("Z", 0)), None),
    _Row("x(0,hi)Y(M-1)", "zero", lambda c: ("X", 0, c.top - c.M), lambda c: ("Y", c.M - 1), "full", _hi(0),
         lambda c: (3 - c.T1, 1), lambda c: (("Z", 0), ("Z", 0)), None),
    _Row("x(n,hi)Y(M-1)", "n_nonzero", lambda c: ("X", c.n, c.top), lambda c: ("Y", c.M - 1), "full", _hi(0),
         lambda c: (c.n + 3 - c.T1 - c.M, c.n + 1 - c.M), lambda c: (("Z", 0), ("Z", 0)), None),
]


class _Ctx:
    __slots__ = ("M", "q", "p", "top", "T1", "n")

    def __init__(self, inv: Inventory, n: int):
        self.M = inv.M
        self.q = inv.q
        self.p = inv.p
        self.top = inv.top
        self.T1 = inv.M * inv.q + 2 * inv.q
        self.n = n


# the values of a chart row's free index n, by the row's var, for M = 2^k
_VAR_VALUES: dict[str, Callable[[int], range]] = {
    "zero": lambda M: range(0, 1),
    "last": lambda M: range(M - 1, M),
    "l": lambda M: range(1, M - 2, 2),
    "m": lambda M: range(2, M - 1, 2),
    "n": lambda M: range(M),
    "n_nonzero": lambda M: range(1, M),
}


def _alternatives(inv: Inventory, head: tuple, si: int, run: list, target, residue) -> list:
    """For each source pair (si, run[t]) of a slice whose b-coordinates are
    (prefix, n + t), t < len(run), with head = (prefix, n): the first pair
    (u', w') of the target block with that product other than the source
    pair, in the order of its left rows, or None.  The left rows in scope
    are the target left progression's, with a residue only those whose
    trailing exponent is congruent to it mod M; w' lies in the target right
    progression, and a row meets each product at most once.

    A row times a member run of that progression is one interval, so each
    row multiplies once per run and walks the slice elements in that
    interval still without a pair, skipped over by a next-unpaired array
    with path halving."""
    (prefix, n), (tgt_left, tgt_right) = head, target
    lo, hi = inv.bounds[tgt_left]
    if residue is not None:
        lo += (residue - lo) % inv.M
    row, els, runs = inv.prog.get(tgt_left, _NONE), inv.gset.elements, inv.runs.get(tgt_right, [])
    size = len(run)
    found: list = [None] * size
    after = list(range(size + 1))  # after[t] leads to the first unpaired t' >= t; size ends
    left = size
    for c in range(lo, hi + 1, 1 if residue is None else inv.M):
        li = row.get(c)
        if li is None:
            continue
        for members in runs:
            p, m = b_key(els[li] * els[members[0]])
            start = m - n  # the member run's head meets the slice element t = start
            if p != prefix or start >= size or start + len(members) <= 0:
                continue
            t, end = max(start, 0), min(start + len(members), size)
            while True:
                while after[t] != t:
                    after[t] = t = after[after[t]]
                if t >= end:
                    break
                w = members[t - start]
                if li != si or w != run[t]:
                    found[t] = li, w
                    after[t] = t + 1
                    left -= 1
                t += 1
        if not left:
            break
    return found


def check_chart(inv: Inventory) -> list[ClaimReport]:
    """Verify every instantiated chart row against the built set."""
    reports: list[ClaimReport] = []
    M, els = inv.M, inv.gset.elements
    for row in _CHART:
        for n in _VAR_VALUES[row.var](M):
            ctx = _Ctx(inv, n)
            lfam, lidx, lexp = row.left(ctx)
            rfam, ridx = row.right(ctx)
            li = inv.lookup(lfam, lidx, lexp)
            pattern_rng = row.rng(ctx)
            # the deviating printed ranges occur only in the published chart
            # for the scaled family; the base chart agrees with the pattern
            printed_rng = row.printed(ctx) if (row.printed and inv.spec.scaled) else pattern_rng
            tgt_left, tgt_right = row.target(ctx)
            params = {
                "slice": [lfam, lidx, lexp],
                "right": [rfam, ridx],
                "var": n,
                "printed_range": list(printed_rng),
                "pattern_range": list(pattern_rng),
                "target": [list(tgt_left), list(tgt_right)],
            }
            source = f"chart:{row.tag}"
            if li is None:
                reports.append(ClaimReport("ChartRow", source, params, FAIL, 0, {"reason": "missing slice element"}))
                continue
            rlo, rhi = inv.bounds[(rfam, ridx)]
            if row.src == "short":
                rlo = inv.top - M + 1
            cols = [inv.lookup(rfam, ridx, j) for j in range(rlo, rhi + 1)]
            if None in cols:
                missing = {"reason": "missing slice element", "j": rlo + cols.index(None)}
                reports.append(ClaimReport("ChartRow", source, params, FAIL, 0, missing))
                continue
            run = [cols[t] for t in b_runs([els[ri] for ri in cols])[0]]  # all of cols when they are one b-run
            head = b_key(els[li] * els[run[0]])

            def range_matches(rng):
                lo, hi = rng
                return hi - lo + 1 == len(run) == len(cols) and b_key(from_word(row.shape(ctx, lo), inv.params)) == head

            if range_matches(printed_rng):
                used, suspect = printed_rng, False
            elif printed_rng != pattern_rng and range_matches(pattern_rng):
                used, suspect = pattern_rng, True
            else:
                witness = {
                    "reason": "rewritten slice does not match the claimed range",
                    "printed_range": list(printed_rng),
                    "pattern_range": list(pattern_rng),
                    "slice_elements": [str(w) for w in sorted(els[li] * els[ri] for ri in cols)[:4]],
                }
                reports.append(ClaimReport("ChartRow", source, params, FAIL, len(cols), witness))
                continue
            params["range_used"] = list(used)
            # membership of every rewritten element in the target block
            witness, fails = None, 0
            alts = dict(zip(run, _alternatives(inv, head, li, run, (tgt_left, tgt_right), row.residue)))
            for ri, alt in zip(cols, map(alts.get, cols)):
                if alt is None:
                    fails += 1
                    if witness is None:
                        witness = {
                            "reason": "no alternative factorization in target block",
                            "element": str(els[li] * els[ri]),
                            "source_pair": [li, ri],
                        }
                    continue
                inv.mark(li, ri)
                inv.mark(*alt)
            status = FAIL if fails else (TYPO_SUSPECT if suspect else PASS)
            reports.append(ClaimReport("ChartRow", source, params, status, len(cols), witness))
    return reports


def run_all_claims(inv: Inventory) -> list[ClaimReport]:
    reports: list[ClaimReport] = []
    for family in ("Y", "X", "Z"):
        reports.extend(check_diagonals(inv, family))
    reports.extend(check_z_endpoints(inv))
    reports.extend(check_chart(inv))
    return reports


def verify_family(spec: FamilySpec, gset: Optional[GroupSet] = None) -> dict:
    """Run every structured claim plus the end-to-end unique-product scan,
    and return the check report: scan_family's report, of the family's runs
    as for verify or of gset, with the claims, their coverage, the
    cross-checks, the wall time and the exit status.  build_s covers the
    built set and the Inventory, which refuses a bad set before the scan.

    The two must agree: all claims passing with full coverage implies a zero
    unique-product count.
    """
    t0 = time.perf_counter()
    inv = Inventory(spec, build_family(spec) if gset is None else gset)
    build_s = time.perf_counter() - t0
    _, _, uniques, report = scan_family(spec, gset)
    report["timings"]["build_s"] = round(build_s, 6)
    t1 = time.perf_counter()
    claims = [c.as_dict() for c in run_all_claims(inv)]
    report["timings"]["claims_s"] = round(time.perf_counter() - t1, 6)
    counts = Counter(c["status"] for c in claims)
    covered, total = inv.covered_pairs(), inv.size ** 2
    report.update(
        spec=report["parameters"],
        claims=claims,
        claims_summary={"pass": counts[PASS], "fail": counts[FAIL], "typo_suspect": counts[TYPO_SUSPECT]},
        coverage=covered / total,
        covered_pairs=covered,
        total_pairs=total,
        # soundness: a marked pair exhibits a second factorization, so its
        # product can never sit in the table with multiplicity one
        soundness_ok=all(not inv.is_marked(i, j) for _, (i, j) in uniques),
        consistent=counts[FAIL] > 0 or covered < total or not uniques,
        uncovered_sample=[list(t) for t in inv.uncovered()] if covered < total else [],
        wall_time_s=round(time.perf_counter() - t0, 6),
        exit_status=0 if counts[FAIL] == counts[TYPO_SUSPECT] == 0 and covered == total and not uniques else 1,
    )
    return report
