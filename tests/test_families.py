import pytest

from nup import families
from nup.families import (
    FamilySpec,
    SliceLabel,
    build_family,
    expected_cardinality,
    family_runs,
    progression_bounds,
    scan_family,
    z_halfwidth,
)
from nup.cli import main
from nup.sets import RunSet, make_set, save_set_file
from nup.words import GroupParams, from_string, from_word, generator


class TestSpecValidation:
    def test_base(self):
        spec = FamilySpec(2)
        assert not spec.scaled
        assert spec.p_eff == spec.q_eff == 1

    def test_scaled_ok(self):
        FamilySpec(1, 3, 5)
        FamilySpec(2, 1, 5)
        FamilySpec(3, 7, 9)

    @pytest.mark.parametrize(
        "k,p,q",
        [
            (0, None, None),  # k too small
            (1, 2, 3),  # p even
            (1, -1, 3),  # p negative
            (1, 1, 2),  # q even
            (1, 1, -3),  # q negative
            (2, 1, 3),  # 4 does not divide q-1
            (3, 1, 5),  # 8 does not divide q-1
        ],
    )
    def test_rejects(self, k, p, q):
        with pytest.raises(ValueError):
            FamilySpec(k, p, q)

    def test_p_q_must_come_together(self):
        with pytest.raises(ValueError):
            FamilySpec(1, 3, None)

    @pytest.mark.parametrize("p,q,field", [(1, 3.0, "q"), (1.0, 3, "p"), (True, 3, "p")])
    def test_rejects_non_integer_p_q(self, p, q, field):
        with pytest.raises(ValueError, match=f"^{field} must be a positive odd integer"):
            FamilySpec(1, p, q)


class TestBaseSet:
    @pytest.mark.parametrize("k,size", [(1, 17), (2, 49), (3, 161)])
    def test_cardinality(self, k, size):
        T = build_family(FamilySpec(k))
        assert len(T) == size
        assert expected_cardinality(FamilySpec(k)) == size
        assert T.duplicates_removed == 0

    def test_k4_cardinality_formula(self):
        assert expected_cardinality(FamilySpec(4)) == 577

    def test_labeled_element_example(self):
        T = build_family(FamilySpec(1))
        w = from_string("Ab", GroupParams(1))  # a^-1 b
        i = T.index_of(w)
        assert i is not None
        assert T.labels[i] == SliceLabel("X", 0, 1)

    def test_progression_inventory(self):
        T = build_family(FamilySpec(2))
        bounds = progression_bounds(FamilySpec(2))
        assert bounds[("X", 0)] == (0, 1)
        assert bounds[("X", 3)] == (0, 5)
        assert bounds[("Y", 0)] == (1, 5)
        assert bounds[("Z", 0)] == (-4, 4)
        seen = {}
        for lab in T.labels:
            seen.setdefault((lab.family, lab.index), []).append(lab.j)
        for key, (lo, hi) in bounds.items():
            assert sorted(seen[key]) == list(range(lo, hi + 1))

    def test_progressions_step_by_b(self):
        # consecutive labeled elements of one progression differ by a right b
        for k in (1, 2):
            T = build_family(FamilySpec(k))
            b = generator(GroupParams(k), "b")
            by_slice = {}
            for w, lab in zip(T.elements, T.labels):
                by_slice.setdefault((lab.family, lab.index), {})[lab.j] = w
            for js in by_slice.values():
                for j in sorted(js)[:-1]:
                    assert js[j] * b == js[j + 1]


def folded_family(spec):
    """The family with one word folded per element, X_i's b^i a^-p b^j, Y_l's
    b^l a^p b^j and Z's b^j: the reference for build_family."""
    params, p, elements, labels = spec.params, spec.p_eff, [], []
    for (fam, idx), (lo, hi) in progression_bounds(spec).items():
        for j in range(lo, hi + 1):
            tokens = (("b", j),) if fam == "Z" else (("b", idx), ("a", -p if fam == "X" else p), ("b", j))
            elements.append(from_word([t for t in tokens if t[1] != 0], params))
            labels.append(SliceLabel(fam, idx, j))
    return make_set(params, elements, labels)


BUILD_POINTS = [(k,) for k in range(1, 7)] + [(1, 1, 3), (1, 3, 5), (2, 1, 5), (3, 1, 9), (2, 1, 201), (1, 1, 801)]


class TestBuildFamily:
    """build_family steps the heads of family_runs along their progressions;
    the reference folds a word per element."""

    @pytest.mark.parametrize("point", BUILD_POINTS, ids=lambda p: "-".join(map(str, p)))
    def test_equals_the_word_fold(self, point, tmp_path, monkeypatch):
        spec = FamilySpec(*point)
        folded, folds = folded_family(spec), 0

        def counting(word, params):
            nonlocal folds
            folds += 1
            return from_word(word, params)

        monkeypatch.setattr(families, "from_word", counting)
        built = build_family(spec)
        assert folds == len(progression_bounds(spec))  # one fold per progression, its head
        assert built.elements == folded.elements and built.labels == folded.labels
        assert built.duplicates_removed == folded.duplicates_removed == 0
        # export-set writes the reference's file byte for byte
        args = ["export-set", "--k", str(spec.k), "-o", str(tmp_path / "built.txt")]
        if spec.scaled:
            args += ["--p", str(spec.p), "--q", str(spec.q)]
        assert main(args) == 0
        save_set_file(folded, tmp_path / "folded.txt", header=spec.describe())
        assert (tmp_path / "built.txt").read_bytes() == (tmp_path / "folded.txt").read_bytes()


class TestScaledSet:
    def test_degenerate_agreement(self):
        for k in (1, 2, 3):
            assert build_family(FamilySpec(k, 1, 1)) == build_family(FamilySpec(k))

    @pytest.mark.parametrize(
        "k,p,q,size",
        [
            (1, 1, 3, 57),
            (1, 3, 3, 57),
            (1, 1, 5, 97),
            (2, 1, 5, 265),
            (2, 3, 5, 265),
        ],
    )
    def test_cardinality_matches_formula(self, k, p, q, size):
        spec = FamilySpec(k, p, q)
        T = build_family(spec)
        assert expected_cardinality(spec) == size
        assert len(T) == size
        assert T.duplicates_removed == 0

    def test_z_endpoints_divisible_by_modulus(self):
        for spec in (FamilySpec(1), FamilySpec(1, 1, 3), FamilySpec(2, 3, 5), FamilySpec(3, 1, 9)):
            D = z_halfwidth(spec)
            assert D % (1 << spec.k) == 0
            lo, hi = progression_bounds(spec)[("Z", 0)]
            assert (lo, hi) == (-D, D)

    def test_scaled_bounds(self):
        bounds = progression_bounds(FamilySpec(1, 1, 3))
        assert bounds[("X", 0)] == (-2, 7)
        assert bounds[("X", 1)] == (-2, 9)
        assert bounds[("Y", 0)] == (-1, 9)
        assert bounds[("Z", 0)] == (-6, 6)


def runs_by_length(runs):
    return [(head, len(ix)) for head, ix in runs]


def without_timings(report):
    return {**report, "timings": None}


class TestFamilyRuns:
    """A family is scanned from its progressions, one b-run each, with no
    element built but the heads."""

    @pytest.mark.parametrize("point, count", [((3,), 17), ((5,), 65), ((1, 1, 5), 5), ((2, 3, 5), 9), ((3, 1, 9), 17)])
    def test_runs_are_the_built_sets_b_runs(self, point, count):
        spec = FamilySpec(*point)
        runs = family_runs(spec)
        assert sorted(runs_by_length(runs.runs)) == sorted(runs_by_length(build_family(spec).b_runs()))
        assert len(runs.runs) == count and len(runs) == expected_cardinality(spec)
        # the elements are numbered along the runs
        assert [p for _, ix in runs.runs for p in ix] == list(range(len(runs)))

    def test_overlapping_progressions_refused(self, monkeypatch):
        # Z's elements are b^j whatever its index, so a second Z progression
        # lies on Z_0's prefix; one that only touches Z_0 is a run of its own
        spec = FamilySpec(1)
        D = z_halfwidth(spec)
        bounds = progression_bounds(spec)
        monkeypatch.setattr(families, "progression_bounds", lambda spec: {**bounds, ("Z", 1): (D + 1, D + 3)})
        gset, table, uniques, report = scan_family(spec)
        assert len(table.runs) == 6 and report["set_size"] == expected_cardinality(spec) + 3
        monkeypatch.setattr(families, "progression_bounds", lambda spec: {**bounds, ("Z", 1): (D, D + 3)})
        with pytest.raises(ValueError, match=f"two row b-runs share the element b\\^{D}"):
            scan_family(spec)
        with pytest.raises(RuntimeError, match="produced 1 duplicate elements"):
            build_family(spec)


class TestScanFamily:
    """verify's scan of the runs against the scan of the built set."""

    @pytest.mark.parametrize("point", [(k,) for k in range(1, 7)] + [(1, 1, 3), (1, 3, 5), (2, 1, 5), (2, 3, 5), (3, 1, 9), (1, 1, 101)],
                             ids=lambda p: "-".join(map(str, p)))
    def test_runs_and_elements_give_one_report(self, point):
        spec = FamilySpec(*point)
        gset, table, uniques, report = scan_family(spec)
        assert gset is None and uniques == []
        built = build_family(spec)
        _, built_table, _, built_report = scan_family(spec, built)
        assert without_timings(report) == without_timings(built_report)
        assert report["set_size"] == table.total_pairs() ** 0.5 == expected_cardinality(spec)

    @pytest.mark.parametrize("point", [(2,), (1, 1, 3), (2, 1, 5)], ids=lambda p: "-".join(map(str, p)))
    def test_family_with_one_element_dropped(self, point, monkeypatch):
        # an interior element of a run dropped splits it in two and leaves
        # unique products: the runs, numbered along themselves, name the
        # witnesses by the indices of the set that the elements path scans
        spec = FamilySpec(*point)
        T = build_family(spec)
        lo, _ = progression_bounds(spec)[("X", 1)]
        drop = T.labels.index(SliceLabel("X", 1, lo + 1))
        S = make_set(spec.params, T.elements[:drop] + T.elements[drop + 1 :], T.labels[:drop] + T.labels[drop + 1 :])
        by_elements = scan_family(spec, S)
        runs, start = [], 0
        for head, ix in S.b_runs():
            runs.append((head, range(start, start + len(ix))))
            start += len(ix)
        assert len(runs) == len(T.b_runs()) + 1
        monkeypatch.setattr(families, "family_runs", lambda spec: RunSet(spec.params, runs))
        monkeypatch.setattr(families, "build_family", lambda spec: S)
        by_runs = scan_family(spec)
        assert by_runs[0] is S
        assert by_runs[2] == by_elements[2] and by_runs[2]
        assert without_timings(by_runs[3]) == without_timings(by_elements[3])
