import random
import re
import sys

import pytest

import claims_oracle
from conftest import random_element
from nup import checker
from nup.checker import (
    FAIL,
    PASS,
    TYPO_SUSPECT,
    Inventory,
    check_chart,
    check_diagonals,
    check_z_endpoints,
    run_all_claims,
    verify_family,
)
from nup.cli import main
from nup.families import FamilySpec, SliceLabel, build_family, progression_bounds
from nup.sets import load_set_file, make_set, product_table
from nup.words import GroupParams, from_string, from_word


def tampered_family(spec, drop_word):
    """Rebuild the labeled set with one element removed."""
    full = build_family(spec)
    victim = from_string(drop_word, spec.params)
    keep = [(w, lab) for w, lab in zip(full.elements, full.labels) if w != victim]
    assert len(keep) == len(full) - 1
    return make_set(spec.params, [w for w, _ in keep], [lab for _, lab in keep])


def relabeled(spec, changes):
    """The labeled set with each label in changes replaced by its value."""
    full = build_family(spec)
    return make_set(spec.params, full.elements, [changes.get(lab, lab) for lab in full.labels])


def swapped_labels(spec, key, j1, j2):
    """The labeled set with the labels (key, j1) and (key, j2) exchanged."""
    a, b = SliceLabel(*key, j1), SliceLabel(*key, j2)
    return relabeled(spec, {a: b, b: a})


def coverage_bytes(inv):
    """The coverage as one byte per pair (i, j), row-major."""
    n = inv.size
    return bytearray(inv.is_marked(i, j) for i in range(n) for j in range(n))


def claims_and_oracle(spec, gset):
    """The table-read claims and the element-wise oracle's, each on a fresh Inventory."""
    ours, theirs = Inventory(spec, gset), Inventory(spec, gset)
    return (ours, run_all_claims(ours)), (theirs, claims_oracle.run_all_claims(theirs))


def chart_slices(inv):
    """(row, ctx, source pairs (si, ri, key)) of every chart instance whose
    slice keys are consecutive, the only slices the chart reads pairs for."""
    for row in checker._CHART:
        for n in checker._VAR_VALUES[row.var](inv.M):
            ctx = checker._Ctx(inv, n)
            li = inv.lookup(*row.left(ctx))
            rfam, ridx = row.right(ctx)
            rlo, rhi = inv.bounds[(rfam, ridx)]
            if row.src == "short":
                rlo = inv.top - inv.M + 1
            cols = [inv.lookup(rfam, ridx, j) for j in range(rlo, rhi + 1)]
            if li is None or None in cols:
                continue
            sources = [(li, ri, inv.table.product(li, ri)) for ri in cols]
            (pid, n0), *_ = keys = sorted(z for _, _, z in sources)
            if keys == [(pid, n0 + t) for t in range(len(keys))]:
                yield row, ctx, sources


class TestClaimSuites:
    def test_base_k1_all_pass(self):
        spec = FamilySpec(1)
        inv = Inventory(spec, build_family(spec))
        claims = run_all_claims(inv)
        assert claims
        assert all(c.status == PASS for c in claims)
        assert inv.coverage() == 1.0

    def test_diagonal_kinds(self):
        spec = FamilySpec(2)
        inv = Inventory(spec, build_family(spec))
        y_claims = check_diagonals(inv, "Y")
        x_claims = check_diagonals(inv, "X")
        z_claims = check_diagonals(inv, "Z")
        assert all(c.kind == "DiagonalEquality" for c in y_claims)
        assert {c.kind for c in x_claims} == {"DiagonalEquality", "X0Containment"}
        assert all(c.status == PASS for c in y_claims + x_claims + z_claims)
        # one table per left progression
        assert len(y_claims) == len(z_claims) == 2 * 4 + 1

    def test_specific_slice_equality(self):
        # x_(1,1) Y_0 = x_(1,0) Y_1 as sets, elementwise at equal j
        spec = FamilySpec(1)
        P = spec.params
        left_hi = from_string("b A b", P)
        left_lo = from_string("b A", P)
        y0 = [from_string(f"a b^{j}", P) for j in (1, 2, 3)]
        y1 = [from_string(f"b a b^{j}", P) for j in (1, 2, 3)]
        assert [left_hi * w for w in y0] == [left_lo * w for w in y1]

    def test_z_endpoint_examples(self):
        # the two extreme powers of b in Z*Z land in mixed products: for k=1,
        # b^4 = (b a^-1)(a b^3) and b^-4 = (a b^3)(b a^-1)
        P = FamilySpec(1).params
        assert from_string("b^4", P) == from_string("bA", P) * from_string("ab^3", P)
        assert from_string("b^-4", P) == from_string("ab^3", P) * from_string("bA", P)
        spec = FamilySpec(1)
        inv = Inventory(spec, build_family(spec))
        reports = check_z_endpoints(inv)
        assert all(c.status == PASS for c in reports)
        tags = {c.source for c in reports}
        assert "endpoints:Z*Z" in tags
        assert "zslice:Z(-2)*Y0" in tags

    def test_chart_rows_pass_base(self):
        for k in (1, 2):
            spec = FamilySpec(k)
            inv = Inventory(spec, build_family(spec))
            check_diagonals(inv, "X")  # chart marking is independent of order
            rows = check_chart(inv)
            assert rows
            assert all(c.status == PASS for c in rows), [c.source for c in rows if c.status != PASS]

    def test_chart_row_count_k2(self):
        spec = FamilySpec(2)
        inv = Inventory(spec, build_family(spec))
        rows = check_chart(inv)
        # 9 fixed rows, 4 rows for l=1, 4 for m=2, and the n-rows: 4+4+4+3
        assert len(rows) == 9 + 4 + 4 + 15

    def test_typo_suspect_rows_scaled_only(self):
        base = verify_family(FamilySpec(2))
        assert base["claims_summary"]["typo_suspect"] == 0
        scaled = verify_family(FamilySpec(2, 1, 5))
        suspects = {c["source"] for c in scaled["claims"] if c["status"] == TYPO_SUSPECT}
        assert suspects == {"chart:x(m,lo)X1", "chart:y(M-1,lo)Y0"}
        for c in scaled["claims"]:
            if c["status"] == TYPO_SUSPECT:
                assert c["params"]["range_used"] == c["params"]["pattern_range"]
                assert c["params"]["printed_range"] != c["params"]["pattern_range"]


class TestSummary:
    def test_full_verification_base(self):
        s = verify_family(FamilySpec(1))
        assert s["set_size"] == s["expected_size"] == 17
        assert s["unique_count"] == 0
        assert s["coverage"] == 1.0
        assert s["claims_summary"]["fail"] == 0
        assert s["soundness_ok"] and s["consistent"]
        assert s["exit_status"] == 0

    def test_full_verification_scaled(self):
        s = verify_family(FamilySpec(1, 1, 3))
        assert s["set_size"] == 57
        assert s["unique_count"] == 0
        assert s["coverage"] == 1.0
        assert s["claims_summary"]["fail"] == 0
        assert s["exit_status"] == 1  # the typo-suspect rows

    def test_report_dict_schema(self):
        d = verify_family(FamilySpec(1))
        assert set(d) == {
            "parameters", "set_size", "expected_size", "duplicates_removed", "unique_count", "witnesses", "counters", "timings",
            "spec", "claims", "claims_summary", "coverage", "covered_pairs", "total_pairs", "soundness_ok", "consistent",
            "uncovered_sample", "wall_time_s", "exit_status",
        }
        for claim in d["claims"]:
            assert {"source", "kind", "params", "status", "count"} <= set(claim) <= {"source", "kind", "params", "status", "count", "witness"}


class TestTamperedSets:
    def test_missing_element_is_caught(self):
        spec = FamilySpec(1)
        broken = tampered_family(spec, "b^2")  # drop the top of Z
        summary = verify_family(spec, gset=broken)
        assert summary["claims_summary"]["fail"] > 0
        assert summary["coverage"] < 1.0
        failed = [c for c in summary["claims"] if c["status"] == FAIL]
        assert all("witness" in c for c in failed)
        # the scan agrees: the damaged set has uniquely represented products
        assert summary["unique_count"] > 0
        assert summary["consistent"]
        assert summary["exit_status"] == 1

    def test_soundness_cross_check_on_tampered_set(self):
        spec = FamilySpec(1)
        broken = tampered_family(spec, "b a b^3")
        summary = verify_family(spec, gset=broken)
        # no claim may have marked a pair whose product is actually unique
        assert summary["soundness_ok"]

    def test_unlabeled_set_rejected(self):
        spec = FamilySpec(1)
        plain = make_set(spec.params, build_family(spec).elements)
        with pytest.raises(ValueError):
            Inventory(spec, plain)


class TestRewriteIdentities:
    def test_sign_flip_identities_hold_for_all_signs(self):
        # the chart rewrites rest on two families of raw group identities:
        # flipping both interior a-powers across an odd b-block, and
        # collapsing a b-block that is a multiple of 2^k between opposite
        # a-powers; both must hold for every sign and odd power
        def word(params, *pairs):
            return from_word([t for t in pairs if t[1] != 0], params)

        for k in (1, 2, 3):
            P = GroupParams(k)
            M = 1 << k
            for p in (1, 3):
                for eps in (1, -1):
                    for n in range(M):
                        for i in (-2, 0, 1, M, M + 1):
                            lhs = word(P, ("b", n), ("a", eps * p), ("b", 1), ("a", eps * p), ("b", i))
                            rhs = word(P, ("b", n), ("a", -eps * p), ("b", 1), ("a", -eps * p), ("b", i))
                            assert lhs == rhs
                            mid = word(P, ("b", n), ("a", eps * p), ("b", M), ("a", -eps * p), ("b", i))
                            flat = word(P, ("b", n - M + i))
                            assert mid == flat

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda row: row._replace(rng=lambda c: (row.rng(c)[0] + 1, row.rng(c)[1] + 1)),
            lambda row: row._replace(shape=checker._lo(1, 2, 1)),
        ],
        ids=["range-shifted", "shape-exponent"],
    )
    def test_chart_row_rewrite_is_checked(self, mutate, monkeypatch):
        # a claimed range of the right length that names other elements
        # fails the row in both checkers
        tag = "y(0,lo)Y0"
        chart = [mutate(row) if row.tag == tag else row for row in checker._CHART]
        monkeypatch.setattr(checker, "_CHART", chart)
        monkeypatch.setattr(claims_oracle, "_CHART", chart)
        spec = FamilySpec(2)
        (_, ours), (_, theirs) = claims_and_oracle(spec, build_family(spec))
        for claims in (ours, theirs):
            (report,) = [c for c in claims if c.source == f"chart:{tag}"]
            assert report.status == FAIL
            assert report.witness["reason"] == "rewritten slice does not match the claimed range"
        assert [c.as_dict() for c in ours] == [c.as_dict() for c in theirs]


    def test_chart_target_excludes_the_source_pair(self, monkeypatch):
        # a row whose target block is its own slice's block finds each
        # element's own pair first; the checker must skip it, as the oracle does
        tag = "y(0,lo)Y0"
        chart = [row._replace(target=lambda c: (("Y", 0), ("Y", 0)), residue=None) if row.tag == tag else row for row in checker._CHART]
        monkeypatch.setattr(checker, "_CHART", chart)
        monkeypatch.setattr(claims_oracle, "_CHART", chart)
        spec = FamilySpec(2)
        (inv, ours), (oracle_inv, theirs) = claims_and_oracle(spec, build_family(spec))
        assert [c.as_dict() for c in ours] == [c.as_dict() for c in theirs]
        assert coverage_bytes(inv) == coverage_bytes(oracle_inv)

    @pytest.mark.parametrize("spec", [FamilySpec(2), FamilySpec(2, 1, 5)], ids=["base-k2", "2-1-5"])
    def test_shifted_residue_fails_its_row(self, spec, monkeypatch):
        # a residue off by one excludes every left row that meets the slice,
        # so each instance of the row finds no second factorization
        inv = Inventory(spec, build_family(spec))
        rows = [row for row in checker._CHART if row.residue is not None]
        assert len(rows) == 17
        for row in rows:
            monkeypatch.setattr(checker, "_CHART", [row._replace(residue=(row.residue + 1) % inv.M)])
            reports = check_chart(inv)
            assert reports, row.tag
            for report in reports:
                assert report.status == FAIL, row.tag
                assert report.witness["reason"] == "no alternative factorization in target block"

    @pytest.mark.parametrize(
        "spec",
        [FamilySpec(k) for k in range(1, 5)]
        + [FamilySpec(*t) for t in ((1, 1, 3), (1, 3, 5), (2, 1, 5), (2, 3, 5), (3, 1, 9), (2, 1, 9))],
        ids=lambda s: f"base-k{s.k}" if s.p is None else f"{s.k}-{s.p}-{s.q}",
    )
    def test_each_residue_is_exact(self, spec):
        # read over every left row of the target block, the second
        # factorizations of a row's slice have left factors in its residue
        # class alone; a row with no residue needs more than one class, so a
        # residue loosened to None fails here as a shifted one fails above
        inv = Inventory(spec, build_family(spec))
        M, labels, table = inv.M, inv.gset.labels, inv.table
        slices = list(chart_slices(inv))
        assert len(slices) == sum(len(checker._VAR_VALUES[row.var](M)) for row in checker._CHART)
        for row, ctx, sources in slices:
            tgt_left, tgt_right = row.target(ctx)
            lefts, rights = set(inv.prog[tgt_left].values()), set(inv.prog[tgt_right].values())
            residues = set()
            for li, ri, z in sources:
                for a, b in table.factorizations(table.element_of(z)):
                    if a in lefts and b in rights and (a, b) != (li, ri):
                        residues.add(labels[a].j % M)
            if row.residue is None:
                assert len(residues) > 1, (row.tag, ctx.n, residues)
            else:
                assert residues == {row.residue}, (row.tag, ctx.n, residues)


class TestCoverageAccounting:
    def test_marks_are_real_pairs(self):
        spec = FamilySpec(1)
        gset = build_family(spec)
        inv = Inventory(spec, gset)
        run_all_claims(inv)
        table = product_table(gset, gset)
        # spot-check: every marked pair's product has multiplicity >= 2
        n = len(gset)
        for i in range(n):
            for j in range(n):
                if inv.is_marked(i, j):
                    assert table.multiplicity(gset[i] * gset[j]) >= 2

    def test_span_cache_does_not_grow_with_q(self):
        # the Z claims ask for about 4(M+1)q single columns; only the longer
        # spans of the diagonals and containments, a fixed number, are cached
        sizes = []
        for q in (5, 101):
            spec = FamilySpec(1, 1, q)
            inv = Inventory(spec, build_family(spec))
            run_all_claims(inv)
            sizes.append(len(inv._spans))
        assert sizes[0] == sizes[1]


DIFFERENTIAL_POINTS = [(1,), (2,), (3,), (4,), (1, 1, 3), (1, 3, 5), (2, 1, 5), (2, 3, 5)]


class TestTableReadMatchesOracle:
    @pytest.mark.parametrize("point", DIFFERENTIAL_POINTS, ids=lambda p: "-".join(map(str, p)))
    def test_reports_and_coverage_identical(self, point):
        spec = FamilySpec(*point)
        (inv, ours), (oracle_inv, theirs) = claims_and_oracle(spec, build_family(spec))
        assert [c.as_dict() for c in ours] == [c.as_dict() for c in theirs]
        assert coverage_bytes(inv) == coverage_bytes(oracle_inv)

    @pytest.mark.parametrize(
        "spec, make",
        [
            # labels that no longer follow b-offsets inside one progression
            (FamilySpec(2), lambda spec: swapped_labels(spec, ("Y", 1), 2, 3)),
            (FamilySpec(1, 1, 3), lambda spec: swapped_labels(spec, ("X", 1), 0, 4)),
            # an interior element dropped, so the progression's span breaks its run
            (FamilySpec(2), lambda spec: tampered_family(spec, "b^2 a b^3")),
            (FamilySpec(1, 1, 3), lambda spec: tampered_family(spec, "b A b^5")),
            # an interior element of X_1 dropped, so a chart target
            # progression spans two runs
            (FamilySpec(2), lambda spec: tampered_family(spec, "b A b^3")),
            # an element of a chart target labeled into another progression,
            # so its run holds a column outside the target block
            (FamilySpec(2), lambda spec: relabeled(spec, {SliceLabel("X", 1, 4): SliceLabel("Y", 9, 4)})),
        ],
        ids=["swap-k2", "swap-1-1-3", "drop-k2", "drop-1-1-3", "drop-target-k2", "foreign-progression-k2"],
    )
    def test_tampered_sets(self, spec, make):
        broken = make(spec)
        (inv, ours), (oracle_inv, theirs) = claims_and_oracle(spec, broken)
        assert [c.as_dict() for c in ours] == [c.as_dict() for c in theirs]
        assert coverage_bytes(inv) == coverage_bytes(oracle_inv)
        failed = [c for c in ours if c.status == FAIL]
        assert failed and all(c.witness is not None for c in failed)
        summary = verify_family(spec, gset=broken)
        assert summary["soundness_ok"]
        assert summary["consistent"]

    def test_claims_do_not_multiply(self, monkeypatch):
        spec = FamilySpec(2, 1, 5)
        inv = Inventory(spec, build_family(spec))
        from nup.words import NormalForm

        def refuse(self, other):
            raise AssertionError("a claim multiplied two elements")

        monkeypatch.setattr(NormalForm, "__mul__", refuse)
        claims = run_all_claims(inv)
        assert inv.coverage() == 1.0
        assert all(c.status != FAIL for c in claims)


DAMAGES = ("drop-elements", "drop-progressions", "keep-one", "relabel", "relabel-foreign", "add-foreign", "swap")


def damaged_family(spec, damage, rng):
    """The labeled family with the damage, one of DAMAGES, drawn by rng.
    Labels stay distinct, so the checker accepts every such set."""
    full = build_family(spec)
    elements, labels = list(full.elements), list(full.labels)
    M = 1 << spec.k
    bounds = progression_bounds(spec)
    keys = list(bounds)
    foreign = [("X", M), ("Y", M + 3), ("Z", 1), ("X", -1)]
    if damage == "drop-elements":
        for i in sorted(rng.sample(range(len(elements)), rng.randint(1, 6)), reverse=True):
            del elements[i], labels[i]
    elif damage == "drop-progressions":
        gone = set(rng.sample(keys, rng.randint(1, 3)))
        elements, labels = zip(*[(w, lab) for w, lab in zip(elements, labels) if lab[:2] not in gone])
    elif damage == "keep-one":
        i = rng.randrange(len(elements))
        elements, labels = [elements[i]], [labels[i]]
    elif damage == "relabel":
        # an element takes the label of one in another progression, which is dropped
        i = rng.randrange(len(elements))
        other = rng.choice([t for t, lab in enumerate(labels) if lab[:2] != labels[i][:2]])
        labels[i] = labels[other]
        del elements[other], labels[other]
    elif damage == "relabel-foreign":
        i = rng.randrange(len(elements))
        labels[i] = SliceLabel(*rng.choice(foreign), labels[i].j)
    elif damage == "add-foreign":
        w = random_element(rng, spec.params)
        while w in full:
            w = random_element(rng, spec.params)
        key = rng.choice(keys + foreign)
        elements.append(w)
        labels.append(SliceLabel(*key, bounds.get(key, (0, 0))[1] + rng.randint(1, 3)))
    else:
        i, other = rng.sample(range(len(elements)), 2)
        labels[i], labels[other] = labels[other], labels[i]
    return make_set(spec.params, elements, labels)


class TestDamagedSets:
    """verify_family on damaged labeled sets: every report is consistent and
    sound, and a damage that changes the set fails it."""

    @pytest.mark.parametrize("point", [(1,), (2,), (1, 1, 3), (2, 1, 5), (1, 3, 5)], ids=lambda p: "-".join(map(str, p)))
    def test_reports_consistent_and_sound(self, point):
        spec = FamilySpec(*point)
        rng = random.Random(f"damaged {point}")
        for damage in DAMAGES * 2:
            report = verify_family(spec, damaged_family(spec, damage, rng))
            assert report["consistent"] and report["soundness_ok"], damage
            # a swap keeps the set, which may still pass under its new labels
            assert report["exit_status"] == 1 or damage == "swap", damage

    @pytest.mark.parametrize("key", [("Y", 0), ("X", 0), ("X", 1), ("Y", 3), ("X", 2), ("Z", 0)], ids=lambda k: f"{k[0]}{k[1]}")
    def test_missing_progression_fails_its_claims(self, key):
        spec = FamilySpec(2)
        full = build_family(spec)
        keep = [(w, lab) for w, lab in zip(full.elements, full.labels) if lab[:2] != key]
        report = verify_family(spec, make_set(spec.params, [w for w, _ in keep], [lab for _, lab in keep]))
        assert report["claims_summary"]["fail"] > 0
        assert report["consistent"] and report["soundness_ok"]
        assert report["exit_status"] == 1

    def test_empty_set_refused(self):
        spec = FamilySpec(2)
        with pytest.raises(ValueError, match="checker needs a non-empty set"):
            verify_family(spec, make_set(spec.params, [], []))

    def test_set_of_another_group_refused(self):
        with pytest.raises(ValueError, match="the set lies in the group k=1, not in the spec's group k=2"):
            verify_family(FamilySpec(2), build_family(FamilySpec(1)))


def brute_alternative(inv, source, target, residue):
    """The first (li, w) of the target block with the source's product, other
    than the source pair: every admissible left row in order, then every
    column of the runs that hold the target right progression."""
    si, ri, z = source
    tgt_left, tgt_right = target
    memb, labels, table = inv.prog.get(tgt_right, {}), inv.gset.labels, inv.table
    lo, hi = inv.bounds[tgt_left]
    for c in range(lo, hi + 1):
        li = inv.prog.get(tgt_left, {}).get(c)
        if li is None or residue is not None and (c - residue) % inv.M:
            continue
        for r in table.runs_of(memb.values()):
            for w in table.runs[r]:
                if memb.get(labels[w].j) == w and (li, w) != (si, ri) and table.product(li, w) == z:
                    return li, w
    return None


_TAMPERED = TestTableReadMatchesOracle.test_tampered_sets.pytestmark[0]


class TestAlternatives:
    def assert_first_pairs(self, spec, gset):
        inv = Inventory(spec, gset)
        slices = 0
        for row, ctx, sources in chart_slices(inv):
            target = row.target(ctx)
            found = checker._alternatives(inv, min(z for _, _, z in sources), sources, target, row.residue)
            assert found == [brute_alternative(inv, s, target, row.residue) for s in sources], (row.tag, ctx.n)
            slices += 1
        assert slices

    @pytest.mark.parametrize("point", [(1,), (2,), (3,), (4,), (1, 1, 3), (2, 1, 5), (2, 3, 5)], ids=lambda p: "-".join(map(str, p)))
    def test_first_pair_against_brute(self, point):
        spec = FamilySpec(*point)
        self.assert_first_pairs(spec, build_family(spec))

    # the tampered sets of the oracle test; in drop-1-1-3 a row's interval
    # starts past the slice's end
    @pytest.mark.parametrize("spec, make", _TAMPERED.args[1], ids=_TAMPERED.kwargs["ids"])
    def test_first_pair_on_tampered_sets(self, spec, make):
        self.assert_first_pairs(spec, make(spec))

    def test_work_grows_linearly_in_q(self):
        # each slice element is tested once per row that meets it until it
        # has a pair; walking every element of every row's interval grows as
        # q^2, about 15x here.  The work is counted as lines run in
        # _alternatives, which also counts a walk that tests nothing
        code = checker._alternatives.__code__
        lines = []

        def count(frame, event, arg):
            if event == "line":
                lines[-1] += 1
            return count

        def trace(frame, event, arg):
            return count if frame.f_code is code else None

        for q in (101, 401):
            spec = FamilySpec(1, 1, q)
            inv = Inventory(spec, build_family(spec))
            lines.append(0)
            previous = sys.gettrace()
            sys.settrace(trace)
            try:
                check_chart(inv)
            finally:
                sys.settrace(previous)
        assert 0 < lines[1] <= 5 * lines[0], lines


class TestLabelValidation:
    # a label's index and j take an optional '-' and ASCII digits only, so
    # '_', '+' and other scripts' digits leave it a plain string label
    @pytest.mark.parametrize(
        "label",
        [None, "foo", "X 1 1_0", "X 1 \uff13", "X 1 +3", "X 1 \u0661", "X \u0662 3"],
        ids=["unlabeled", "foreign", "underscore", "fullwidth", "plus", "arabic-indic-j", "arabic-indic-index"],
    )
    def test_bad_label_names_the_element(self, label, tmp_path, capsys):
        path = tmp_path / "t1.txt"
        assert main(["export-set", "--k", "1", "-o", str(path)]) == 0
        lines = path.read_text().splitlines()
        # the first element line loses its label or gets a bad one
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[first] = lines[first].split("|")[0].strip() + ("" if label is None else f" | {label}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        spec = FamilySpec(1)
        gset = load_set_file(path, spec.params)
        bad = gset.labels.index(label)
        with pytest.raises(ValueError, match=rf"element {bad} .*has label {re.escape(repr(label))}"):
            Inventory(spec, gset)

    def test_negative_label_loads(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("b | X 1 -3\n")
        assert load_set_file(path, GroupParams(1)).labels == (SliceLabel("X", 1, -3),)

    def test_repeated_label_names_both_elements(self, tmp_path):
        path = tmp_path / "t1.txt"
        assert main(["export-set", "--k", "1", "-o", str(path)]) == 0
        text = path.read_text()
        assert text.count("| Y 1 2\n") == 1
        path.write_text(text.replace("| Y 1 2\n", "| Y 1 3\n"))
        spec = FamilySpec(1)
        gset = load_set_file(path, spec.params)
        first, second = [i for i, lab in enumerate(gset.labels) if lab == SliceLabel("Y", 1, 3)]
        with pytest.raises(ValueError, match=rf"elements {first} and {second} share the label 'Y 1 3'"):
            Inventory(spec, gset)
