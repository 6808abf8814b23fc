import pytest

from nup.families import (
    FamilySpec,
    SliceLabel,
    build_family,
    expected_cardinality,
    progression_bounds,
    z_halfwidth,
)
from nup.words import GroupParams, from_string, generator


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
