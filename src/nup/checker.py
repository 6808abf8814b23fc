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

Every verified match marks both factorization pairs it exhibits; at the end
the marked pairs must cover the full |T|^2 factorization table, which (since
each mark records a second, distinct factorization of the same product)
implies that no element of the square is uniquely represented.  That
implication is cross-checked against the actual factorization table.

No claim multiplies two elements: every product is read from that table,
which names X[i] * Y[j] exactly by a key (see nup.sets).  When both right
factors of a claim range over consecutive elements of one b-run, the claim
holds for the whole range exactly when the first two products agree, so one
comparison settles it; any other range is walked pair by pair.  Every chart
shape ends in b^j, so a claimed range lo..hi is one rewrite: its keys are
(pid, n + t), where (pid, n) is the key of the shape at j = lo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .families import FamilySpec, SliceLabel, build_family, expected_cardinality, z_halfwidth
from .sets import FactorizationTable, GroupSet, product_table, unique_products
from .words import from_word

PASS = "pass"
FAIL = "fail"
TYPO_SUSPECT = "typo-suspect"
_ORDER = {"X": 0, "Y": 1, "Z": 2}  # progression order of the claims
_NONE: dict = {}  # the progression of an absent label


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
    """Labeled-set view used by all claims: progression lookup by label, the
    square's factorization table, and coverage.

    table is the factorization table of gset * gset, built when not given.
    Coverage is one int per row i whose bit j marks the pair (i, j).
    """

    def __init__(self, spec: FamilySpec, gset: GroupSet, table: Optional[FactorizationTable] = None):
        if gset.labels is None:
            raise ValueError("checker needs a labeled set")
        self.prog: dict[tuple[str, int], dict[int, int]] = {}
        for i, lab in enumerate(gset.labels):
            if not isinstance(lab, SliceLabel) or lab.family not in _ORDER:
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
        self.top = (self.M + 1) * self.q  # largest X/Y trailing exponent
        self.D = z_halfwidth(spec)
        self.size = len(gset)
        self.bounds = {key: (min(js), max(js)) for key, js in self.prog.items()}
        self.table = product_table(gset, gset) if table is None else table
        self._rows = [0] * self.size
        self._spans: dict = {}

    def progressions(self):
        return sorted(self.prog, key=lambda key: (_ORDER[key[0]], key[1]))

    def lookup(self, fam: str, idx: int, j: int) -> Optional[int]:
        return self.prog.get((fam, idx), _NONE).get(j)

    def span(self, fam: str, idx: int, j: int, length: int) -> Optional[tuple[int, int]]:
        """(first column, column bits) of the labels (fam, idx, j .. j+length-1)
        when their elements are consecutive elements y, y*b, ... of one run,
        read from the elements themselves; else None.  Cached."""
        key = (fam, idx, j, length)
        found = self._spans.get(key, False)
        if found is False:
            js = self.prog.get((fam, idx), _NONE)
            cols = [js.get(j + t) for t in range(length)]
            found = None
            if None not in cols and self.table.is_run(cols):
                found = (cols[0], sum(1 << c for c in cols))
            self._spans[key] = found
        return found

    def mark(self, i: int, j: int) -> None:
        self._rows[i] |= 1 << j

    def is_marked(self, i: int, j: int) -> bool:
        return bool(self._rows[i] >> j & 1)

    def covered_pairs(self) -> int:
        return sum(row.bit_count() for row in self._rows)

    def coverage(self) -> float:
        return self.covered_pairs() / (self.size * self.size)

    def uncovered(self, limit: int = 10) -> list[tuple[int, int]]:
        out = []
        full = (1 << self.size) - 1
        for i, row in enumerate(self._rows):
            gaps = full & ~row
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
    za, zb = inv.table.product(ia, ja), inv.table.product(ib, jb)
    if za != zb:
        return {"reason": "products differ", "left": str(inv.table.element_of(za)), "right": str(inv.table.element_of(zb)), "pairs": pairs}
    if (ia, ja) == (ib, jb):
        return {"reason": "identical factorization", "pairs": pairs[:1]}
    inv.mark(ia, ja)
    inv.mark(ib, jb)
    return None


def _pair_claim(inv: Inventory, kind: str, source: str, params: dict, blocks) -> ClaimReport:
    """One report over blocks (lefts, rights, length): for every left pair
    (left_a, left_b), right pair (right_a, right_b) and t < length, the claim
    left_a * right_a = left_b * right_b with both right labels shifted by t.
    Factors are labels (family, index, j).  Where both right spans are
    consecutive elements of one run, a left pair is checked by comparing its
    first two products; anything else is walked pair by pair.  The witness is
    the first failure."""
    count, fails, witness = 0, 0, None
    rows, product = inv._rows, inv.table.product
    for lefts, rights, length in blocks:
        spans = [(inv.span(*ra, length), inv.span(*rb, length)) for ra, rb in rights]
        for la, lb in lefts:
            ia, ib = inv.lookup(*la), inv.lookup(*lb)
            for (ra, rb), (span_a, span_b) in zip(rights, spans):
                count += length
                if span_a and span_b and ia is not None and ib is not None and ia != ib:
                    # a row times a run is one interval, so the first products decide
                    if product(ia, span_a[0]) == product(ib, span_b[0]):
                        rows[ia] |= span_a[1]
                        rows[ib] |= span_b[1]
                        continue
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
    for (ufam, uidx) in inv.progressions():
        s, e = inv.bounds[(ufam, uidx)]
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
    for (ufam, uidx) in inv.progressions():
        if ufam == "Z":
            continue
        s, e = inv.bounds[(ufam, uidx)]
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


def _find_alternative(inv: Inventory, z: tuple[int, int], tgt_left, tgt_right, residue, exclude_pair):
    """Locate the product with key z as u' * w' inside the target block with
    (u', w') != exclude_pair.

    Left factors are restricted to trailing exponents congruent to residue
    mod M when a residue is given.  Returns the index pair or None."""
    lo, hi = inv.bounds[tgt_left]
    if residue is not None:
        lo += (residue - lo) % inv.M
    cs = range(lo, hi + 1, 1 if residue is None else inv.M)
    row = inv.prog[tgt_left]
    memb = inv.prog[tgt_right]
    labels = inv.gset.labels
    for c in cs:
        li = row.get(c)
        if li is None:
            continue
        ri = inv.table.right_factor(li, z)
        if ri is not None and memb.get(labels[ri].j) == ri and (li, ri) != exclude_pair:
            return (li, ri)
    return None


def check_chart(inv: Inventory) -> list[ClaimReport]:
    """Verify every instantiated chart row against the built set."""
    reports: list[ClaimReport] = []
    M, table = inv.M, inv.table
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
            src_pairs = []
            missing = None
            for i in range(rlo, rhi + 1):
                ri = inv.lookup(rfam, ridx, i)
                if ri is None:
                    missing = {"reason": "missing slice element", "j": i}
                    break
                src_pairs.append((li, ri, table.product(li, ri)))
            if missing:
                reports.append(ClaimReport("ChartRow", source, params, FAIL, 0, missing))
                continue
            src_sorted = sorted(z for _, _, z in src_pairs)

            def range_matches(rng):
                lo, hi = rng
                if hi - lo + 1 != len(src_sorted):
                    return False
                pid, n = table.key_of(from_word(row.shape(ctx, lo), inv.params))  # shapes end in b^j
                return src_sorted == [(pid, n + t) for t in range(hi - lo + 1)]

            if range_matches(printed_rng):
                used, suspect = printed_rng, False
            elif printed_rng != pattern_rng and range_matches(pattern_rng):
                used, suspect = pattern_rng, True
            else:
                elements = sorted((table.element_of(z) for z in src_sorted), key=lambda w: w.sort_key())
                witness = {
                    "reason": "rewritten slice does not match the claimed range",
                    "printed_range": list(printed_rng),
                    "pattern_range": list(pattern_rng),
                    "slice_elements": [str(w) for w in elements[:4]],
                }
                reports.append(ClaimReport("ChartRow", source, params, FAIL, len(src_pairs), witness))
                continue
            params["range_used"] = list(used)
            # membership of every rewritten element in the target block
            witness = None
            fails = 0
            for (si, ri, z) in src_pairs:
                alt = _find_alternative(inv, z, tgt_left, tgt_right, row.residue, (si, ri))
                if alt is None:
                    fails += 1
                    if witness is None:
                        witness = {
                            "reason": "no alternative factorization in target block",
                            "element": str(table.element_of(z)),
                            "source_pair": [si, ri],
                        }
                    continue
                inv.mark(si, ri)
                inv.mark(*alt)
            status = FAIL if fails else (TYPO_SUSPECT if suspect else PASS)
            reports.append(ClaimReport("ChartRow", source, params, status, len(src_pairs), witness))
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


def scan_family(spec: FamilySpec, gset: Optional[GroupSet] = None) -> tuple[GroupSet, FactorizationTable, list, dict]:
    """Build the family (unless gset is given), the factorization table of
    its square and its unique products.  Returns (gset, table, uniques,
    timings of the build and the scan)."""
    t0 = time.perf_counter()
    if gset is None:
        gset = build_family(spec)
    t1 = time.perf_counter()
    table = product_table(gset, gset)
    uniques = unique_products(gset, gset, table=table)
    t2 = time.perf_counter()
    return gset, table, uniques, {"build_s": round(t1 - t0, 6), "scan_s": round(t2 - t1, 6)}


def verify_family(spec: FamilySpec, gset: Optional[GroupSet] = None) -> CheckSummary:
    """Run every structured claim plus the end-to-end unique-product scan.

    The two must agree: all claims passing with full coverage implies a zero
    unique-product count.
    """
    t0 = time.perf_counter()
    gset, table, uniques, timings = scan_family(spec, gset)
    t1 = time.perf_counter()
    inv = Inventory(spec, gset, table)
    claims = run_all_claims(inv)
    timings["claims_s"] = round(time.perf_counter() - t1, 6)
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
        timings=timings,
    )
