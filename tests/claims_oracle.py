"""The element-wise claim checker: the oracle for nup.checker.

Every claim multiplies the NormalForms it names and compares the products;
the chart locates a rewritten element z in its target block by computing
u'^-1 * z for each admissible left factor u'.  It reads the progression
lookup of an Inventory and marks that Inventory's coverage, and shares the
chart rows (nup.checker._CHART) with the table-reading checker, so the two
differ only in how a product is named and compared.
"""

from __future__ import annotations

from nup.checker import FAIL, PASS, TYPO_SUSPECT, _CHART, _VAR_VALUES, ClaimReport, _Ctx
from nup.words import from_word


class ElementView:
    """An Inventory plus NormalForm membership per progression and cached inverses."""

    def __init__(self, inv):
        self.inv = inv
        self.member = {key: {inv.gset.elements[i]: i for i in js.values()} for key, js in inv.prog.items()}
        self.inverses: dict = {}

    def element(self, i):
        return self.inv.gset.elements[i]

    def inv_of(self, i):
        w = self.inverses.get(i)
        if w is None:
            w = self.inverses[i] = self.element(i).inverse()
        return w


def _check_pair_equal(view, left_a, right_a, left_b, right_b):
    inv = view.inv
    ia, ja, ib, jb = (inv.lookup(*spot) for spot in (left_a, right_a, left_b, right_b))
    pairs = [list(left_a) + list(right_a), list(left_b) + list(right_b)]
    missing = [name for name, i in (("left_a", ia), ("right_a", ja), ("left_b", ib), ("right_b", jb)) if i is None]
    if missing:
        return {"reason": "missing element", "missing": missing, "pairs": pairs}
    za = view.element(ia) * view.element(ja)
    zb = view.element(ib) * view.element(jb)
    if za != zb:
        return {"reason": "products differ", "left": str(za), "right": str(zb), "pairs": pairs}
    if (ia, ja) == (ib, jb):
        return {"reason": "identical factorization", "pairs": pairs[:1]}
    inv.mark(ia, ja)
    inv.mark(ib, jb)
    return None


def _pair_claim(view, kind, source, params, quads) -> ClaimReport:
    count, fails, witness = 0, 0, None
    for quad in quads:
        w = _check_pair_equal(view, *quad)
        count += 1
        if w is not None:
            fails += 1
            witness = witness or w
    return ClaimReport(kind, source, params, PASS if fails == 0 else FAIL, count, witness)


def check_diagonals(view, family):
    inv = view.inv
    M = inv.M
    if family == "Z":
        cols, (jlo, jhi) = [(0, 0, 1)], (-inv.D, inv.D - 1)
    elif family == "Y":
        cols, (jlo, jhi) = [(c, c + 1, 0) for c in range(M - 1)], inv.bounds[("Y", 0)]
    else:
        cols, (jlo, jhi) = [(c, c + 1, 0) for c in range(1, M - 1)], inv.bounds[("X", 1)]
    reports = []
    for (ufam, uidx), (s, e) in inv.bounds.items():
        u = (ufam, uidx)
        quads = (
            ((*u, v + 1), (family, c, j), (*u, v), (family, c2, j + dj))
            for v in range(s, e)
            for c, c2, dj in cols
            for j in range(jlo, jhi + 1)
        )
        params = {"left": [ufam, uidx], "right_family": family}
        reports.append(_pair_claim(view, "DiagonalEquality", f"table:{ufam}{uidx}*{family}", params, quads))
        if family != "X":
            continue
        zlo, zhi = inv.bounds[("X", 0)]
        lower = (((*u, v + 1), ("X", 0, j), (*u, v), ("X", 1, j)) for v in range(s, e) for j in range(zlo, zhi + 1))
        params = {"left": [ufam, uidx], "containment": "u(v+1) X0 in u(v) X1"}
        reports.append(_pair_claim(view, "X0Containment", f"table:{ufam}{uidx}*X:lower", params, lower))
        upper = (((*u, v), ("X", 0, j), (*u, v + 1), ("X", M - 1, j + M)) for v in range(s, e) for j in range(zlo, zhi + 1))
        params = {"left": [ufam, uidx], "containment": "u(v) X0 in u(v+1) X(M-1), j shifted by M"}
        reports.append(_pair_claim(view, "X0Containment", f"table:{ufam}{uidx}*X:upper", params, upper))
    return reports


def check_z_endpoints(view):
    inv = view.inv
    M, D, q = inv.M, inv.D, inv.q
    reports = []
    for (ufam, uidx), (s, e) in inv.bounds.items():
        if ufam == "Z":
            continue
        quads = (((ufam, uidx, row), ("Z", 0, zc), ("Z", 0, -zc), (ufam, uidx, row)) for row, zc in ((s, -D), (e, D)))
        params = {"left": [ufam, uidx], "relocated_to": "Z*U"}
        reports.append(_pair_claim(view, "ZEndpoint", f"endpoints:{ufam}{uidx}*Z", params, quads))
    y_top, x_bottom = ("Y", 0, inv.top), ("X", M - 1, -q + 1)
    quads = ((("Z", 0, -D), ("Z", 0, -D), y_top, x_bottom), (("Z", 0, D), ("Z", 0, D), x_bottom, y_top))
    params = {"left": ["Z", 0], "relocated_to": "mixed X/Y products"}
    reports.append(_pair_claim(view, "ZEndpoint", "endpoints:Z*Z", params, quads))
    for (wfam, widx, zexp) in (("Y", 0, -D), ("Y", M - 1, D), ("X", 1, -D), ("X", M - 1, D)):
        lo, hi = inv.bounds[(wfam, widx)]
        quads = ((("Z", 0, zexp), (wfam, widx, j), (wfam, widx, j), ("Z", 0, -zexp)) for j in range(lo, hi + 1))
        params = {"left": ["Z", 0, zexp], "slice": [wfam, widx], "relocated_to": f"{wfam}{widx}*Z"}
        reports.append(_pair_claim(view, "ZEndpoint", f"zslice:Z({zexp:+d})*{wfam}{widx}", params, quads))
    return reports


def _find_alternative(view, z, tgt_left, tgt_right, residue, exclude_pair):
    inv = view.inv
    lo, hi = inv.bounds[tgt_left]
    M = inv.M
    cs = range(lo, hi + 1) if residue is None else range(lo + ((residue - lo) % M), hi + 1, M)
    row = inv.prog.get(tgt_left, {})
    memb = view.member.get(tgt_right, {})
    for c in cs:
        li = row.get(c)
        if li is None:
            continue
        ri = memb.get(view.inv_of(li) * z)
        if ri is not None and (li, ri) != exclude_pair:
            return (li, ri)
    return None


def check_chart(view):
    inv = view.inv
    reports = []
    M = inv.M
    for row in _CHART:
        for n in _VAR_VALUES[row.var](M):
            ctx = _Ctx(inv, n)
            lfam, lidx, lexp = row.left(ctx)
            rfam, ridx = row.right(ctx)
            li = inv.lookup(lfam, lidx, lexp)
            pattern_rng = row.rng(ctx)
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
            src_pairs, missing = [], None
            for i in range(rlo, rhi + 1):
                ri = inv.lookup(rfam, ridx, i)
                if ri is None:
                    missing = {"reason": "missing slice element", "j": i}
                    break
                src_pairs.append((li, ri, view.element(li) * view.element(ri)))
            if missing:
                reports.append(ClaimReport("ChartRow", source, params, FAIL, 0, missing))
                continue
            src_sorted = sorted(z for _, _, z in src_pairs)

            def range_matches(rng):
                lo, hi = rng
                if hi - lo + 1 != len(src_sorted):
                    return False
                exp = sorted(from_word(row.shape(ctx, j), inv.params) for j in range(lo, hi + 1))
                return exp == src_sorted

            if range_matches(printed_rng):
                used, suspect = printed_rng, False
            elif printed_rng != pattern_rng and range_matches(pattern_rng):
                used, suspect = pattern_rng, True
            else:
                witness = {
                    "reason": "rewritten slice does not match the claimed range",
                    "printed_range": list(printed_rng),
                    "pattern_range": list(pattern_rng),
                    "slice_elements": [str(z) for z in src_sorted[:4]],
                }
                reports.append(ClaimReport("ChartRow", source, params, FAIL, len(src_pairs), witness))
                continue
            params["range_used"] = list(used)
            witness, fails = None, 0
            for (si, ri, z) in src_pairs:
                alt = _find_alternative(view, z, tgt_left, tgt_right, row.residue, (si, ri))
                if alt is None:
                    fails += 1
                    if witness is None:
                        witness = {"reason": "no alternative factorization in target block", "element": str(z), "source_pair": [si, ri]}
                    continue
                inv.mark(si, ri)
                inv.mark(*alt)
            status = FAIL if fails else (TYPO_SUSPECT if suspect else PASS)
            reports.append(ClaimReport("ChartRow", source, params, status, len(src_pairs), witness))
    return reports


def run_all_claims(inv) -> list[ClaimReport]:
    """Every claim of nup.checker.run_all_claims, in the same order, by multiplying elements."""
    view = ElementView(inv)
    reports = []
    for family in ("Y", "X", "Z"):
        reports.extend(check_diagonals(view, family))
    reports.extend(check_z_endpoints(view))
    reports.extend(check_chart(view))
    return reports
