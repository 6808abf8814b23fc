import copy
import pickle
import random

import pytest

from conftest import random_element, random_tokens
from nup.search import candidate_universe
from nup.words import (
    ELLIPTIC,
    HYPERBOLIC,
    GroupParams,
    NormalForm,
    ParseError,
    from_string,
    from_word,
    generator,
    identity,
    parse,
)


def nf(k, u, v, alpha, syl=(), beta=0):
    return NormalForm(k, u, v, alpha, syl, beta)


class TestParams:
    def test_modulus(self):
        assert GroupParams(1).modulus == 2
        assert GroupParams(5).modulus == 32

    @pytest.mark.parametrize("k", [0, -1, "2", 1.5])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ValueError):
            GroupParams(k)


class TestNormalFormInvariants:
    def test_field_validation(self):
        with pytest.raises(ValueError):
            NormalForm(1, 0, 0, 2)
        with pytest.raises(ValueError):
            NormalForm(1, 0, 0, 0, (), 2)  # beta out of [0, M-1]
        with pytest.raises(ValueError):
            NormalForm(2, 0, 0, 0, (0,), 0)  # interior exponent must be nonzero
        with pytest.raises(ValueError):
            NormalForm(2, 0, 0, 0, (4,), 0)  # interior exponent must be < M

    def test_identity(self):
        for k in (1, 3):
            e = identity(GroupParams(k))
            assert e.is_identity()
            assert e * e == e

    def test_equality_is_field_equality(self):
        assert nf(1, 0, -1, 1) == nf(1, 0, -1, 1)
        assert nf(1, 0, -1, 1) != nf(1, 0, 1, 1)
        assert nf(1, 0, 0, 0) != nf(2, 0, 0, 0)  # different groups

    def test_canonical_order_is_lexicographic(self):
        a = nf(1, 0, 0, 0, (1,), 0)
        b = nf(1, 0, 0, 0, (1, 1), 0)
        c = nf(1, 0, 0, 1)
        assert a < b  # shorter syllable list sorts first
        assert sorted([b, c, a]) == sorted([c, b, a]) == [a, b, c]
        # a whole ball sorts as by the explicit canonical key
        for k in (1, 2, 3):
            ball = candidate_universe(GroupParams(k), 5)
            shuffled = random.Random(k).sample(ball, len(ball))
            expected = sorted(shuffled, key=lambda w: (w.u, w.v, w.alpha, len(w.syllables), w.syllables, w.beta))
            assert sorted(shuffled) == expected
            assert all(w.n_syllables == len(w.syllables) for w in ball)

    def test_copy_and_pickle_round_trip(self):
        w = from_string("a b a^-1 b^3", GroupParams(2))
        for back in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            assert back == w and hash(back) == hash(w) and type(back) is NormalForm

    @pytest.mark.parametrize("other", [3, 0, True], ids=["3", "0", "True"])
    def test_int_times_element_raises(self, other):
        # a NormalForm is a tuple, but int * w must not be a repeated tuple
        w = from_string("a b a^-1 b^3", GroupParams(2))
        for expr in (lambda: other * w, lambda: w * other):
            with pytest.raises(TypeError, match="unsupported operand"):
                expr()

    @pytest.mark.parametrize("other", ["element", "tuple", "empty"])
    def test_element_plus_anything_raises(self, other):
        # nor w + w a concatenated one, from either side
        w = from_string("a b a^-1 b^3", GroupParams(2))
        o = {"element": w, "tuple": (1, 2), "empty": ()}[other]
        for expr in (lambda: w + o, lambda: o + w):
            with pytest.raises(TypeError, match="unsupported operand"):
                expr()

    def test_mixed_group_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            identity(GroupParams(1)) * identity(GroupParams(2))

    def test_normal_form_closure_sampled(self, rng):
        for k in (1, 2, 3):
            P = GroupParams(k)
            M = P.modulus
            for _ in range(300):
                w = random_element(rng, P)
                assert w.alpha in (0, 1)
                assert 0 <= w.beta < M
                assert all(1 <= s < M for s in w.syllables)


class TestGeneratorSteps:
    def test_relator_letter_sequence(self):
        # a b b a^-1 b b multiplies out to the identity when k = 1
        w = identity(GroupParams(1))
        for g, s in [("a", 1), ("b", 1), ("b", 1), ("a", -1), ("b", 1), ("b", 1)]:
            w = w.times_gen(g, s)
        assert w.is_identity()

    def test_b_overflow_flips_past_a(self):
        a = generator(GroupParams(1), "a")
        assert a.times_gen("b").times_gen("b") == nf(1, 0, -1, 1)  # a b^2 = b^-2 a

    def test_a_squared_flips_past_b(self):
        b = generator(GroupParams(1), "b")
        assert b.times_gen("a").times_gen("a") == nf(1, -1, 0, 0, (), 1)  # b a^2 = a^-2 b

    def test_single_inverses(self):
        P = GroupParams(1)
        assert generator(P, "a").inverse() == nf(1, -1, 0, 1)
        assert generator(P, "b").inverse() == nf(1, 0, -1, 0, (), 1)

    def test_bad_letter_rejected(self):
        with pytest.raises(ValueError):
            identity(GroupParams(1)).times_gen("c")

    @pytest.mark.parametrize(
        "word,message",
        [
            ([("a", 1), ("b", 0)], "zero exponent in generator word"),
            ([("c", 0)], "zero exponent in generator word"),
            ([("a", 1), ("c", 2), ("a", 0)], "unknown generator 'c'"),
            ([("b", 0), ("c", 2)], "zero exponent in generator word"),
        ],
    )
    def test_from_word_names_the_first_bad_token(self, word, message):
        with pytest.raises(ValueError, match=message):
            from_word(word, GroupParams(2))


class TestRelators:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_both_relators_trivial(self, k):
        P = GroupParams(k)
        M = P.modulus
        assert from_string(f"a b^{M} A b^{M}", P).is_identity()
        assert from_string("b a^2 B a^2", P).is_identity()

    def test_relator_rearranged(self):
        P = GroupParams(2)
        assert from_string("ab", P) * from_string("b^3 A", P) == nf(2, 0, -1, 0)


class TestGroupAxioms:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sampled_axioms(self, k, rng):
        P = GroupParams(k)
        e = identity(P)
        for _ in range(800):
            w1 = random_element(rng, P)
            w2 = random_element(rng, P)
            w3 = random_element(rng, P)
            assert (w1 * w2) * w3 == w1 * (w2 * w3)
            assert w1 * e == w1
            assert e * w1 == w1
            assert w1 * w1.inverse() == e
            assert w1.inverse() * w1 == e

    def test_concat_consistency(self, rng):
        # folding a concatenation equals multiplying the two halves
        for k in (1, 2, 3):
            P = GroupParams(k)
            for _ in range(400):
                t1 = random_tokens(rng)
                t2 = random_tokens(rng)
                assert from_word(t1 + t2, P) == from_word(t1, P) * from_word(t2, P)

    def test_block_mul_matches_letter_mul(self, rng):
        for k in (1, 2):
            P = GroupParams(k)
            for _ in range(200):
                w1 = random_element(rng, P)
                w2 = random_element(rng, P)
                stepped = w1
                for g, e in w2.tokens():
                    sign = 1 if e > 0 else -1
                    for _ in range(abs(e)):
                        stepped = stepped.times_gen(g, sign)
                assert stepped == w1 * w2

    def test_pow(self, rng):
        P = GroupParams(2)
        for _ in range(60):
            w = random_element(rng, P, max_letters=6)
            assert w**0 == identity(P)
            assert w**3 == w * w * w
            assert w**-2 == (w * w).inverse()

    def test_no_small_torsion_sampled(self, rng):
        # no sampled nontrivial element has order <= 6
        for k in (1, 2):
            P = GroupParams(k)
            e = identity(P)
            for _ in range(300):
                w = random_element(rng, P, max_letters=8)
                if w == e:
                    continue
                acc = w
                for _ in range(5):
                    acc = acc * w
                    assert acc != e


class TestParsePrint:
    def test_identity_prints_as_one(self):
        assert str(identity(GroupParams(1))) == "1"
        assert from_string("1", GroupParams(1)).is_identity()

    def test_canonical_expansion(self):
        w = nf(2, 1, -1, 1, (2,), 0)
        assert str(w) == "a^2 b^-4 a b^2 a"

    def test_case_and_exponents(self):
        P = GroupParams(1)
        assert from_string("A", P) == generator(P, "a").inverse()
        assert from_string("A^2", P) == from_string("a^-2", P)
        assert from_string("B^-3", P) == from_string("b^3", P)
        assert from_string("a b", P) == from_string("ab", P)

    def test_round_trip_sampled(self, rng):
        for k in (1, 2, 3):
            P = GroupParams(k)
            for _ in range(400):
                w = random_element(rng, P)
                assert from_string(str(w), P) == w

    @pytest.mark.parametrize(
        "text,pos",
        [("a^0", 2), ("c", 0), ("a^", 1), ("a^-", 1), ("", 0), ("  ", 0), ("a1", 1), ("1a", 0), ("a^²", 1), ("a^١", 1), ("b^-٣", 1)],
    )
    def test_syntax_errors_carry_position(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == pos

    def test_parse_tokens(self):
        assert parse("ab^2A") == (("a", 1), ("b", 2), ("a", -1))
        assert parse("1") == ()

    @pytest.mark.parametrize(
        "text,tokens",
        [("1", ()), (" 1 ", ()), ("b^-3 A", (("b", -3), ("a", -1)))],
    )
    def test_grammar_tokens(self, text, tokens):
        assert parse(text) == tokens

    # the exact message and position of each kind of error: blanks lie only
    # between terms, an exponent is '^', an optional '-' and ASCII digits
    # not all zero, and the position is that of '^', of the first digit or
    # of the offending character
    @pytest.mark.parametrize(
        "text,message,pos",
        [
            ("", "empty word", 0),
            ("a^", "expected digits after '^'", 1),
            ("a^-", "expected digits after '^'", 1),
            ("a^0", "zero exponent is not allowed", 2),
            ("a^-0", "zero exponent is not allowed", 3),
            ("a^00", "zero exponent is not allowed", 2),
            ("a ^2", "expected generator a, b, A or B, found '^'", 2),
            ("a^ 2", "expected digits after '^'", 1),
            ("a^١", "expected digits after '^'", 1),
            ("a^３", "expected digits after '^'", 1),
            ("1a", "expected generator a, b, A or B, found '1'", 0),
            ("x", "expected generator a, b, A or B, found 'x'", 0),
            ("a^2^3", "expected generator a, b, A or B, found '^'", 3),
        ],
    )
    def test_grammar_errors(self, text, message, pos):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at position {pos})"
        assert err.value.position == pos


class TestCharacters:
    def test_sigma_examples(self):
        P = GroupParams(1)
        assert from_string("b", P).sigma_b() == -1
        assert from_string("abab", P).sigma_a() == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_characters_multiplicative(self, k, rng):
        P = GroupParams(k)
        M = P.modulus
        for _ in range(500):
            w1 = random_element(rng, P)
            w2 = random_element(rng, P)
            w12 = w1 * w2
            assert w12.sigma_a() == w1.sigma_a() * w2.sigma_a()
            assert w12.sigma_b() == w1.sigma_b() * w2.sigma_b()
            a1, b1 = w1.abelianization()
            a2, b2 = w2.abelianization()
            assert w12.abelianization() == ((a1 + a2) % 4, (b1 + b2) % (2 * M))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_relators_map_to_neutral(self, k):
        P = GroupParams(k)
        M = P.modulus
        for text in (f"a b^{M} A b^{M}", "b a^2 B a^2"):
            w = from_string(text, P)
            assert w.sigma_a() == 1 and w.sigma_b() == 1
            assert w.abelianization() == (0, 0)

    def test_characters_match_raw_word_degrees(self, rng):
        # the invariants computed from the normal form agree with the raw
        # letter counts of the word that produced it
        for k in (1, 2, 3):
            P = GroupParams(k)
            M = P.modulus
            for _ in range(400):
                tokens = random_tokens(rng)
                w = from_word(tokens, P)
                a_deg = sum(e for g, e in tokens if g == "a")
                b_deg = sum(e for g, e in tokens if g == "b")
                assert w.sigma_a() == (-1 if a_deg % 2 else 1)
                assert w.sigma_b() == (-1 if b_deg % 2 else 1)
                assert w.abelianization() == (a_deg % 4, b_deg % (2 * M))

    def test_abelianization_of_single_a(self):
        assert from_string("a", GroupParams(1)).abelianization() == (1, 0)


class TestClassify:
    def test_examples(self):
        P = GroupParams(1)
        assert from_string("a", P).classify() == ELLIPTIC
        assert from_string("b a B", P).classify() == ELLIPTIC  # conjugate of a
        assert from_string("ab", P).classify() == HYPERBOLIC

    def test_amalgam_elements_are_elliptic(self):
        P = GroupParams(2)
        assert from_string("a^2 b^4", P).classify() == ELLIPTIC
        assert from_string("b^3", P).classify() == ELLIPTIC

    def test_exhaustive_short_words_against_conjugation_oracle(self):
        # brute-force oracle: w is elliptic iff some conjugate by a short word
        # has syllable count <= 1; words of length <= 4 suffice for k=1 at
        # this word size
        P = GroupParams(1)
        words = [""]
        frontier = [""]
        for _ in range(4):
            frontier = [w + c for w in frontier for c in "aAbB"]
            words.extend(frontier)
        conjugators = [from_string(w, P) for w in words if w]
        seen = set()
        for text in words:
            if not text:
                continue
            w = from_string(text, P)
            if w in seen:
                continue
            seen.add(w)
            short = w.syllable_count() <= 1 or any(
                (g.inverse() * w * g).syllable_count() <= 1 for g in conjugators
            )
            got = w.classify()
            if short:
                assert got == ELLIPTIC, text
            else:
                # the oracle is one-sided; hyperbolic verdicts are checked by
                # conjugation invariance below
                assert got == HYPERBOLIC or got == ELLIPTIC

    def test_conjugation_invariance(self, rng):
        for k in (1, 2):
            P = GroupParams(k)
            for _ in range(300):
                w = random_element(rng, P, max_letters=8)
                g = random_element(rng, P, max_letters=8)
                assert (g * w * g.inverse()).classify() == w.classify()
