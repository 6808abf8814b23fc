"""Claim-by-claim verification that the square of a built family has no
uniquely represented element.

The square T*T splits into products U*W of labeled progressions.  Each such
product is a table whose rows are the elements of U and whose columns are the
progressions of the right family (single elements for Z), and almost every
cell-slice is matched inside its own table:

 * diagonal equalities    u_(v+1) W_c  =  u_(v) W_(c+1)   (same trailing j),
 * the two X_0 containments
       u_(v+1) X_0  inside  u_(v) X_1          (same j)
       u_(v)   X_0  inside  u_(v+1) X_(M-1)    (j shifted by +M),
 * Z-table corner elements u_(s) b^-D and u_(e) b^D relocated into Z*U,
   and for U = Z the two extreme powers b^(+-2D) relocated into mixed
   products; the four leftover Z-row slices embed into W*Z.

The leftover corner slices are handled by a fixed chart of rewrite rows:
each row names a slice, a rewritten shape with a claimed j-range, and a
target product block that must contain it.  A row is verified by (a) checking
the rewrite as an exact group identity, slice element by slice element,
(b) checking that the claimed j-range reproduces the slice exactly, and
(c) locating every rewritten element inside the target block among the left
factors whose trailing exponent is compatible with the shape (those congruent
to a fixed residue mod M; only such factors can collapse to the shape).

Two chart rows carry printed j-ranges that do not fit the pattern of their
siblings; the checker tests the printed range first and only on failure
retests the pattern-consistent range, reporting the row as typo-suspect.  It
never silently corrects.

Every verified match marks both factorization pairs it exhibits; at the end
the marked pairs must cover the full |T|^2 factorization table, which (since
each mark records a second, distinct factorization of the same product)
implies that no element of the square is uniquely represented.  That
implication is cross-checked against the actual factorization table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .families import FamilySpec, build_family, expected_cardinality, z_halfwidth
from .sets import GroupSet, product_table, unique_products
from .words import NormalForm, from_word

PASS = "pass"
FAIL = "fail"
TYPO_SUSPECT = "typo-suspect"


@dataclass
class ClaimReport:
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
    """Labeled-set view used by all claims: progression lookup plus coverage."""

    def __init__(self, spec: FamilySpec, gset: GroupSet):
        if gset.labels is None:
            raise ValueError("checker needs a labeled set")
        self.spec = spec
        self.gset = gset
        self.params = spec.params
        self.M = 1 << spec.k
        self.q = spec.q_eff
        self.p = spec.p_eff
        self.top = (self.M + 1) * self.q  # largest X/Y trailing exponent
        self.D = z_halfwidth(spec)
        self.size = len(gset)
        self.prog: dict[tuple[str, int], dict[int, int]] = {}
        for i, lab in enumerate(gset.labels):
            self.prog.setdefault((lab.family, lab.index), {})[lab.j] = i
        self.bounds = {key: (min(js), max(js)) for key, js in self.prog.items()}
        self.member: dict[tuple[str, int], dict[NormalForm, int]] = {
            key: {gset.elements[i]: i for i in js.values()} for key, js in self.prog.items()
        }
        self._inv_cache: dict[int, NormalForm] = {}
        self._covered = bytearray(self.size * self.size)

    def progressions(self):
        order = {"X": 0, "Y": 1, "Z": 2}
        return sorted(self.prog, key=lambda key: (order[key[0]], key[1]))

    def lookup(self, fam: str, idx: int, j: int) -> Optional[int]:
        return self.prog.get((fam, idx), {}).get(j)

    def element(self, i: int) -> NormalForm:
        return self.gset.elements[i]

    def inv_of(self, i: int) -> NormalForm:
        w = self._inv_cache.get(i)
        if w is None:
            w = self.gset.elements[i].inverse()
            self._inv_cache[i] = w
        return w

    def mark(self, i: int, j: int) -> None:
        self._covered[i * self.size + j] = 1

    def is_marked(self, i: int, j: int) -> bool:
        return bool(self._covered[i * self.size + j])

    def covered_pairs(self) -> int:
        return sum(self._covered)

    def coverage(self) -> float:
        return self.covered_pairs() / (self.size * self.size)

    def uncovered(self, limit: int = 10) -> list[tuple[int, int]]:
        out = []
        n = self.size
        for idx, flag in enumerate(self._covered):
            if not flag:
                out.append((idx // n, idx % n))
                if len(out) >= limit:
                    break
        return out


def _check_pair_equal(inv: Inventory, left_a, right_a, left_b, right_b) -> Optional[dict]:
    """Verify element(left_a)*element(right_a) == element(left_b)*element(right_b)
    with distinct index pairs; mark both pairs.  Returns a witness dict on
    failure, None on success.  Arguments are (family, index, j) triples."""
    ia = inv.lookup(*left_a)
    ja = inv.lookup(*right_a)
    ib = inv.lookup(*left_b)
    jb = inv.lookup(*right_b)
    missing = [spot for spot, i in (("left_a", ia), ("right_a", ja), ("left_b", ib), ("right_b", jb)) if i is None]
    if missing:
        return {"reason": "missing element", "missing": missing, "pairs": [list(left_a) + list(right_a), list(left_b) + list(right_b)]}
    za = inv.element(ia) * inv.element(ja)
    zb = inv.element(ib) * inv.element(jb)
    if za != zb:
        return {
            "reason": "products differ",
            "left": str(za),
            "right": str(zb),
            "pairs": [list(left_a) + list(right_a), list(left_b) + list(right_b)],
        }
    if (ia, ja) == (ib, jb):
        return {"reason": "identical factorization", "pairs": [list(left_a) + list(right_a)]}
    inv.mark(ia, ja)
    inv.mark(ib, jb)
    return None


def _pair_claim(inv: Inventory, kind: str, source: str, params: dict, quads) -> ClaimReport:
    """One report over _check_pair_equal of every (left_a, right_a, left_b,
    right_b) in quads; the witness is the first failure."""
    count, fails, witness = 0, 0, None
    for quad in quads:
        w = _check_pair_equal(inv, *quad)
        count += 1
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
    reports: list[ClaimReport] = []
    for (ufam, uidx) in inv.progressions():
        s, e = inv.bounds[(ufam, uidx)]
        u = (ufam, uidx)
        quads = (
            ((*u, v + 1), (family, c, j), (*u, v), (family, c2, j + dj))
            for v in range(s, e)
            for c, c2, dj in cols
            for j in range(jlo, jhi + 1)
        )
        params = {"left": [ufam, uidx], "right_family": family}
        reports.append(_pair_claim(inv, "DiagonalEquality", f"table:{ufam}{uidx}*{family}", params, quads))
        if family != "X":
            continue
        # the two short-column containments
        zlo, zhi = inv.bounds[("X", 0)]
        lower = (((*u, v + 1), ("X", 0, j), (*u, v), ("X", 1, j)) for v in range(s, e) for j in range(zlo, zhi + 1))
        params = {"left": [ufam, uidx], "containment": "u(v+1) X0 in u(v) X1"}
        reports.append(_pair_claim(inv, "X0Containment", f"table:{ufam}{uidx}*X:lower", params, lower))
        upper = (((*u, v), ("X", 0, j), (*u, v + 1), ("X", M - 1, j + M)) for v in range(s, e) for j in range(zlo, zhi + 1))
        params = {"left": [ufam, uidx], "containment": "u(v) X0 in u(v+1) X(M-1), j shifted by M"}
        reports.append(_pair_claim(inv, "X0Containment", f"table:{ufam}{uidx}*X:upper", params, upper))
    return reports


def check_z_endpoints(inv: Inventory) -> list[ClaimReport]:
    """Relocate the table-corner elements of every U*Z product, the extreme
    powers b^(+-2D) of Z*Z, and embed the four leftover Z-row slices."""
    M, D, q = inv.M, inv.D, inv.q
    top = inv.top
    reports: list[ClaimReport] = []
    for (ufam, uidx) in inv.progressions():
        if ufam == "Z":
            continue
        s, e = inv.bounds[(ufam, uidx)]
        quads = (((ufam, uidx, row), ("Z", 0, zc), ("Z", 0, -zc), (ufam, uidx, row)) for row, zc in ((s, -D), (e, D)))
        params = {"left": [ufam, uidx], "relocated_to": "Z*U"}
        reports.append(_pair_claim(inv, "ZEndpoint", f"endpoints:{ufam}{uidx}*Z", params, quads))
    # corners of the Z*Z table: b^(-2D) and b^(2D)
    y_top, x_bottom = ("Y", 0, top), ("X", M - 1, -q + 1)
    quads = ((("Z", 0, -D), ("Z", 0, -D), y_top, x_bottom), (("Z", 0, D), ("Z", 0, D), x_bottom, y_top))
    params = {"left": ["Z", 0], "relocated_to": "mixed X/Y products"}
    reports.append(_pair_claim(inv, "ZEndpoint", "endpoints:Z*Z", params, quads))
    # leftover slices of the Z-row tables embed into W * Z
    for (wfam, widx, zexp) in (("Y", 0, -D), ("Y", M - 1, D), ("X", 1, -D), ("X", M - 1, D)):
        lo, hi = inv.bounds[(wfam, widx)]
        quads = ((("Z", 0, zexp), (wfam, widx, j), (wfam, widx, j), ("Z", 0, -zexp)) for j in range(lo, hi + 1))
        params = {"left": ["Z", 0, zexp], "slice": [wfam, widx], "relocated_to": f"{wfam}{widx}*Z"}
        reports.append(_pair_claim(inv, "ZEndpoint", f"zslice:Z({zexp:+d})*{wfam}{widx}", params, quads))
    return reports


# -- chart of the leftover corner slices ---------------------------------------
#
# Row fields: var picks the instantiation set for the free index; left / right
# give the slice (left element by family, index, trailing exponent; right is a
# whole progression); src is "full" or "short" (short = the top M trailing
# exponents of X_1, the part not already matched by the lower containment);
# shape builds the rewritten word for a given j; rng is the pattern-consistent
# claimed j-range and printed overrides it where the published chart deviates;
# target names the product block that must contain the rewritten slice, and
# residue constrains which left factors of that block are in scope (left
# trailing exponent congruent to it mod M; None = no constraint).

def _tok(*pairs):
    return tuple((g, e) for g, e in pairs if e != 0)


_CHART: list[dict] = [
    dict(
        tag="x(0,lo)X1",
        var="zero",
        left=lambda c: ("X", 0, -c.q + 1),
        right=lambda c: ("X", 1),
        src="short",
        shape=lambda c, j: _tok(("b", c.n), ("a", c.p), ("b", 1), ("a", c.p), ("b", j)),
        rng=lambda c: (c.T1 - c.M, c.T1 - 1),
        target=lambda c: (("Y", c.n), ("Y", 0)),
        residue=1,
    ),
    dict(
        tag="x(0,hi)X(M-1)",
        var="zero",
        left=lambda c: ("X", 0, c.top - c.M),
        right=lambda c: ("X", c.M - 1),
        src="full",
        shape=lambda c, j: _tok(("a", -2 * c.p), ("b", j)),
        rng=lambda c: (2 - c.T1, 1),
        target=lambda c: (("Y", c.M - 1), ("Y", c.M - 1)),
        residue=1,
    ),
    dict(
        tag="x(l,lo)X1",
        var="l",
        left=lambda c: ("X", c.n, -c.q + 1),
        right=lambda c: ("X", 1),
        src="short",
        shape=lambda c, j: _tok(("b", c.n), ("a", c.p), ("b", 1), ("a", c.p), ("b", j)),
        rng=lambda c: (c.T1 - c.M, c.T1 - 1),
        target=lambda c: (("Y", c.n), ("Y", 0)),
        residue=1,
    ),
    dict(
        tag="x(l,hi)X(M-1)",
        var="l",
        left=lambda c: ("X", c.n, c.top),
        right=lambda c: ("X", c.M - 1),
        src="full",
        shape=lambda c, j: _tok(("a", 2 * c.p), ("b", j)),
        rng=lambda c: (c.n + 2 - c.T1 - c.M, c.n + 1 - c.M),
        target=lambda c: (("Y", c.n - 1), ("Y", c.M - 1)),
        residue=1,
    ),
    dict(
        tag="x(m,lo)X1",
        var="m",
        left=lambda c: ("X", c.n, -c.q + 1),
        right=lambda c: ("X", 1),
        src="short",
        shape=lambda c, j: _tok(("b", c.n), ("a", -c.p), ("b", 1), ("a", -c.p), ("b", j)),
        rng=lambda c: (c.T1 - c.M, c.T1 - 1),
        printed=lambda c: (c.T1 - c.M, c.M + 2 * c.q - 1),
        target=lambda c: (("Y", c.n), ("Y", 0)),
        residue=1,
    ),
    dict(
        tag="x(m,hi)X(M-1)",
        var="m",
        left=lambda c: ("X", c.n, c.top),
        right=lambda c: ("X", c.M - 1),
        src="full",
        shape=lambda c, j: _tok(("a", -2 * c.p), ("b", j)),
        rng=lambda c: (c.n + 2 - c.T1 - c.M, c.n + 1 - c.M),
        target=lambda c: (("Y", c.n - 1), ("Y", c.M - 1)),
        residue=1,
    ),
    dict(
        tag="x(M-1,lo)X1",
        var="last",
        left=lambda c: ("X", c.n, -c.q + 1),
        right=lambda c: ("X", 1),
        src="short",
        shape=lambda c, j: _tok(("b", c.n), ("a", c.p), ("b", 1), ("a", c.p), ("b", j)),
        rng=lambda c: (c.T1 - c.M, c.T1 - 1),
        target=lambda c: (("Y", c.n), ("Y", 0)),
        residue=1,
    ),
    dict(
        tag="x(M-1,hi)X(M-1)",
        var="last",
        left=lambda c: ("X", c.n, c.top),
        right=lambda c: ("X", c.M - 1),
        src="full",
        shape=lambda c, j: _tok(("a", 2 * c.p), ("b", j)),
        rng=lambda c: (1 - c.T1, 0),
        target=lambda c: (("Y", c.M - 2), ("Y", c.M - 1)),
        residue=1,
    ),
    dict(
        tag="y(n,lo)X1",
        var="n",
        left=lambda c: ("Y", c.n, -c.q + 2),
        right=lambda c: ("X", 1),
        src="short",
        shape=lambda c, j: _tok(("b", c.n), ("a", c.p), ("b", 2), ("a", -c.p), ("b", j)),
        rng=lambda c: (c.T1 - c.M, c.T1 - 1),
        target=lambda c: (("X", c.n), ("Y", 1)),
        residue=1,
    ),
    dict(
        tag="y(n,hi)X(M-1)",
        var="n",
        left=lambda c: ("Y", c.n, c.top),
        right=lambda c: ("X", c.M - 1),
        src="full",
        shape=lambda c, j: _tok(("b", j)),
        rng=lambda c: (c.n + 2 - c.T1 - c.M, c.n + 1 - c.M),
        target=lambda c: (("Z", 0), ("Z", 0)),
        residue=None,
    ),
    dict(
        tag="y(0,lo)Y0",
        var="zero",
        left=lambda c: ("Y", 0, -c.q + 2),
        right=lambda c: ("Y", 0),
        src="full",
        shape=lambda c, j: _tok(("b", c.n), ("a", c.p), ("b", 1), ("a", c.p), ("b", j)),
        rng=lambda c: (1, c.T1 - 1),
        target=lambda c: (("X", 0), ("X", 1)),
        residue=0,
    ),
    dict(
        tag="y(0,hi)Y(M-1)",
        var="zero",
        left=lambda c: ("Y", 0, c.top),
        right=lambda c: ("Y", c.M - 1),
        src="full",
        shape=lambda c, j: _tok(("a", 2 * c.p), ("b", j)),
        rng=lambda c: (3 - c.T1 - c.M, 1 - c.M),
        target=lambda c: (("X", 1), ("X", c.M - 1)),
        residue=1,
    ),
    dict(
        tag="y(l,lo)Y0",
        var="l",
        left=lambda c: ("Y", c.n, -c.q + 2),
        right=lambda c: ("Y", 0),
        src="full",
        shape=lambda c, j: _tok(("b", c.n), ("a", c.p), ("b", 1), ("a", c.p), ("b", j)),
        rng=lambda c: (1, c.T1 - 1),
        target=lambda c: (("X", c.n), ("X", 1)),
        residue=0,
    ),
    dict(
        tag="y(l,hi)Y(M-1)",
        var="l",
        left=lambda c: ("Y", c.n, c.top),
        right=lambda c: ("Y", c.M - 1),
        src="full",
        shape=lambda c, j: _tok(("a", -2 * c.p), ("b", j)),
        rng=lambda c: (c.n + 3 - c.T1 - c.M, c.n + 1 - c.M),
        target=lambda c: (("X", c.n + 1), ("X", c.M - 1)),
        residue=1,
    ),
    dict(
        tag="y(m,lo)Y0",
        var="m",
        left=lambda c: ("Y", c.n, -c.q + 2),
        right=lambda c: ("Y", 0),
        src="full",
        shape=lambda c, j: _tok(("b", c.n), ("a", c.p), ("b", 1), ("a", c.p), ("b", j)),
        rng=lambda c: (1, c.T1 - 1),
        target=lambda c: (("X", c.n), ("X", 1)),
        residue=0,
    ),
    dict(
        tag="y(m,hi)Y(M-1)",
        var="m",
        left=lambda c: ("Y", c.n, c.top),
        right=lambda c: ("Y", c.M - 1),
        src="full",
        shape=lambda c, j: _tok(("a", 2 * c.p), ("b", j)),
        rng=lambda c: (c.n + 3 - c.T1 - c.M, c.n + 1 - c.M),
        target=lambda c: (("X", c.n + 1), ("X", c.M - 1)),
        residue=1,
    ),
    dict(
        tag="y(M-1,lo)Y0",
        var="last",
        left=lambda c: ("Y", c.n, -c.q + 2),
        right=lambda c: ("Y", 0),
        src="full",
        shape=lambda c, j: _tok(("b", c.n), ("a", c.p), ("b", 1), ("a", c.p), ("b", j)),
        rng=lambda c: (1, c.T1 - 1),
        printed=lambda c: (1, 2**c.q + 2 * c.q - 1),
        target=lambda c: (("X", c.M - 1), ("X", 1)),
        residue=0,
    ),
    dict(
        tag="y(M-1,hi)Y(M-1)",
        var="last",
        left=lambda c: ("Y", c.n, c.top),
        right=lambda c: ("Y", c.M - 1),
        src="full",
        shape=lambda c, j: _tok(("a", -2 * c.p), ("b", j)),
        rng=lambda c: (2 - c.T1, 0),
        target=lambda c: (("X", 0), ("X", c.M - 1)),
        residue=1,
    ),
    dict(
        tag="x(n,lo)Y0",
        var="n",
        left=lambda c: ("X", c.n, -c.q + 1),
        right=lambda c: ("Y", 0),
        src="full",
        shape=lambda c, j: _tok(("b", j)),
        rng=lambda c: (c.n + 1, c.n + c.T1 - 1),
        target=lambda c: (("Z", 0), ("Z", 0)),
        residue=None,
    ),
    dict(
        tag="x(0,hi)Y(M-1)",
        var="zero",
        left=lambda c: ("X", 0, c.top - c.M),
        right=lambda c: ("Y", c.M - 1),
        src="full",
        shape=lambda c, j: _tok(("b", j)),
        rng=lambda c: (3 - c.T1, 1),
        target=lambda c: (("Z", 0), ("Z", 0)),
        residue=None,
    ),
    dict(
        tag="x(n,hi)Y(M-1)",
        var="n_nonzero",
        left=lambda c: ("X", c.n, c.top),
        right=lambda c: ("Y", c.M - 1),
        src="full",
        shape=lambda c, j: _tok(("b", j)),
        rng=lambda c: (c.n + 3 - c.T1 - c.M, c.n + 1 - c.M),
        target=lambda c: (("Z", 0), ("Z", 0)),
        residue=None,
    ),
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


def _var_values(kind: str, M: int) -> list[int]:
    if kind == "zero":
        return [0]
    if kind == "last":
        return [M - 1]
    if kind == "l":
        return list(range(1, M - 2, 2))
    if kind == "m":
        return list(range(2, M - 1, 2))
    if kind == "n":
        return list(range(M))
    if kind == "n_nonzero":
        return list(range(1, M))
    raise ValueError(kind)


def _find_alternative(inv: Inventory, z: NormalForm, tgt_left, tgt_right, residue, exclude_pair):
    """Locate z = u' * w' inside the target block with (u', w') != exclude_pair.

    Left factors are restricted to trailing exponents congruent to residue
    mod M when a residue is given.  Returns the index pair or None."""
    fam_l, idx_l = tgt_left
    fam_r, idx_r = tgt_right
    lo, hi = inv.bounds[(fam_l, idx_l)]
    M = inv.M
    if residue is None:
        cs = range(lo, hi + 1)
    else:
        start = lo + ((residue - lo) % M)
        cs = range(start, hi + 1, M)
    row = inv.prog[(fam_l, idx_l)]
    memb = inv.member[(fam_r, idx_r)]
    for c in cs:
        li = row.get(c)
        if li is None:
            continue
        w = inv.inv_of(li) * z
        ri = memb.get(w)
        if ri is None:
            continue
        if (li, ri) != exclude_pair:
            return (li, ri)
    return None


def check_chart(inv: Inventory) -> list[ClaimReport]:
    """Verify every instantiated chart row against the built set."""
    reports: list[ClaimReport] = []
    M = inv.M
    for row in _CHART:
        for n in _var_values(row["var"], M):
            ctx = _Ctx(inv, n)
            lfam, lidx, lexp = row["left"](ctx)
            rfam, ridx = row["right"](ctx)
            li = inv.lookup(lfam, lidx, lexp)
            pattern_rng = row["rng"](ctx)
            # the deviating printed ranges occur only in the published chart
            # for the scaled family; the base chart agrees with the pattern
            printed_rng = row["printed"](ctx) if ("printed" in row and inv.spec.scaled) else pattern_rng
            params = {
                "slice": [lfam, lidx, lexp],
                "right": [rfam, ridx],
                "var": n,
                "printed_range": list(printed_rng),
                "pattern_range": list(pattern_rng),
                "target": [list(row["target"](ctx)[0]), list(row["target"](ctx)[1])],
            }
            source = f"chart:{row['tag']}"
            if li is None:
                reports.append(ClaimReport("ChartRow", source, params, FAIL, 0, {"reason": "missing slice element"}))
                continue
            rlo, rhi = inv.bounds[(rfam, ridx)]
            if row["src"] == "short":
                rlo = inv.top - M + 1
            left_elem = inv.element(li)
            src_pairs = []
            missing = None
            for i in range(rlo, rhi + 1):
                ri = inv.lookup(rfam, ridx, i)
                if ri is None:
                    missing = {"reason": "missing slice element", "j": i}
                    break
                src_pairs.append((li, ri, left_elem * inv.element(ri)))
            if missing:
                reports.append(ClaimReport("ChartRow", source, params, FAIL, 0, missing))
                continue
            src_sorted = sorted((z for _, _, z in src_pairs), key=lambda w: w.sort_key())

            def range_matches(rng):
                lo, hi = rng
                if hi - lo + 1 != len(src_sorted):
                    return False
                exp = sorted(
                    (from_word(row["shape"](ctx, j), inv.params) for j in range(lo, hi + 1)),
                    key=lambda w: w.sort_key(),
                )
                return exp == src_sorted

            if range_matches(printed_rng):
                used, suspect = printed_rng, False
            elif printed_rng != pattern_rng and range_matches(pattern_rng):
                used, suspect = pattern_rng, True
            else:
                reports.append(
                    ClaimReport(
                        "ChartRow",
                        source,
                        params,
                        FAIL,
                        len(src_pairs),
                        {
                            "reason": "rewritten slice does not match the claimed range",
                            "printed_range": list(printed_rng),
                            "pattern_range": list(pattern_rng),
                            "slice_elements": [str(z) for z in src_sorted[:4]],
                        },
                    )
                )
                continue
            params["range_used"] = list(used)
            # membership of every rewritten element in the target block
            tgt_left, tgt_right = row["target"](ctx)
            witness = None
            fails = 0
            for (si, ri, z) in src_pairs:
                alt = _find_alternative(inv, z, tgt_left, tgt_right, row["residue"], (si, ri))
                if alt is None:
                    fails += 1
                    if witness is None:
                        witness = {
                            "reason": "no alternative factorization in target block",
                            "element": str(z),
                            "source_pair": [si, ri],
                        }
                    continue
                inv.mark(si, ri)
                inv.mark(*alt)
            if fails:
                reports.append(ClaimReport("ChartRow", source, params, FAIL, len(src_pairs), witness))
            else:
                reports.append(ClaimReport("ChartRow", source, params, TYPO_SUSPECT if suspect else PASS, len(src_pairs), None))
    return reports


def run_all_claims(inv: Inventory) -> list[ClaimReport]:
    reports: list[ClaimReport] = []
    for family in ("Y", "X", "Z"):
        reports.extend(check_diagonals(inv, family))
    reports.extend(check_z_endpoints(inv))
    reports.extend(check_chart(inv))
    return reports


@dataclass
class CheckSummary:
    spec: FamilySpec
    set_size: int
    expected_size: int
    duplicates_removed: int
    claims: list[ClaimReport]
    coverage: float
    covered_pairs: int
    total_pairs: int
    unique_count: int
    uniques: list
    soundness_ok: bool
    consistent: bool
    elapsed: float
    uncovered_sample: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, TYPO_SUSPECT: 0}
        for c in self.claims:
            out[c.status] += 1
        return out

    @property
    def all_matched(self) -> bool:
        return self.counts[FAIL] == 0 and self.coverage == 1.0

    def as_dict(self) -> dict:
        counts = self.counts
        return {
            "spec": {"k": self.spec.k, "p": self.spec.p, "q": self.spec.q},
            "set_size": self.set_size,
            "expected_size": self.expected_size,
            "duplicates_removed": self.duplicates_removed,
            "claims": [c.as_dict() for c in self.claims],
            "claims_summary": {"pass": counts[PASS], "fail": counts[FAIL], "typo_suspect": counts[TYPO_SUSPECT]},
            "coverage": self.coverage,
            "covered_pairs": self.covered_pairs,
            "total_pairs": self.total_pairs,
            "unique_count": self.unique_count,
            "witnesses": [[str(z), list(pair)] for z, pair in self.uniques],
            "soundness_ok": self.soundness_ok,
            "consistent": self.consistent,
            "uncovered_sample": self.uncovered_sample,
            "counters": self.counters,
            "timings": self.timings,
        }


def verify_family(spec: FamilySpec, gset: Optional[GroupSet] = None) -> CheckSummary:
    """Run every structured claim plus the end-to-end unique-product scan.

    The two must agree: all claims passing with full coverage implies a zero
    unique-product count.
    """
    t0 = time.perf_counter()
    if gset is None:
        gset = build_family(spec)
    t1 = time.perf_counter()
    inv = Inventory(spec, gset)
    claims = run_all_claims(inv)
    t2 = time.perf_counter()
    table = product_table(gset, gset)
    uniques = unique_products(gset, gset, table=table)
    t3 = time.perf_counter()
    # soundness: a marked pair exhibits a second factorization, so its product
    # can never sit in the table with multiplicity one
    soundness_ok = all(not inv.is_marked(i, j) for _, (i, j) in uniques)
    n_fail = sum(1 for c in claims if c.status == FAIL)
    coverage = inv.coverage()
    consistent = (n_fail > 0 or coverage < 1.0) or len(uniques) == 0
    return CheckSummary(
        spec=spec,
        set_size=len(gset),
        expected_size=expected_cardinality(spec),
        duplicates_removed=gset.duplicates_removed,
        claims=claims,
        coverage=coverage,
        covered_pairs=inv.covered_pairs(),
        total_pairs=len(gset) ** 2,
        unique_count=len(uniques),
        uniques=uniques,
        soundness_ok=soundness_ok,
        consistent=consistent,
        elapsed=time.perf_counter() - t0,
        uncovered_sample=[list(t) for t in inv.uncovered()],
        counters=table.counters(),
        timings={"build_s": round(t1 - t0, 6), "scan_s": round(t3 - t2, 6), "claims_s": round(t2 - t1, 6)},
    )
