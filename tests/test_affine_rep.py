"""Differential test of the k=1 arithmetic against an affine crystallographic
representation.

For k=1 the group embeds in the isometries of Z^3 (bench/affine_oracle.py):

    a  ->  t |-> (t1 + 1/2, -t2 + 1/2, -t3)
    b  ->  t |-> (-t1, t2 + 1/2, -t3 + 1/2)

(the torsion-free crystallographic group with holonomy Z/2 x Z/2).  Both
relators map to the identity isometry and a^2, b^2, (ab)^2 map to the three
independent unit translations, so equality of group elements coincides with
equality of affine maps.  The oracle doubles translations to keep everything
in exact integers.  This gives a complete, two-sided equality oracle for
k=1, independent of the normal-form machinery and of the string-rewriting
closure.

For every k the map a -> a, b -> b is a homomorphism G(k) -> G(1): M = 2^k
is even, so both relators of G(k) are products of conjugates of the G(1)
relators.  Composing it with the representation gives a one-sided oracle
for k >= 2: two elements whose images differ are unequal, and the image of
a normal form, a product or an inverse is fixed by the word it came from."""

import random

import pytest

from affine_oracle import IDENTITY, compose, element, invert
from conftest import random_tokens
from nup.words import GroupParams, from_word

P1 = GroupParams(1)


def affine(tokens):
    """The isometry of a token list [(letter, exponent), ...]."""
    return element(" ".join(f"{g}^{e}" for g, e in tokens) or "1")


def test_relators_act_trivially():
    assert affine([("a", 1), ("b", 2), ("a", -1), ("b", 2)]) == IDENTITY
    assert affine([("b", 1), ("a", 2), ("b", -1), ("a", 2)]) == IDENTITY


def test_squares_are_independent_translations():
    sq = {
        "a2": affine([("a", 2)]),
        "b2": affine([("b", 2)]),
        "abab": affine([("a", 1), ("b", 1), ("a", 1), ("b", 1)]),
    }
    vecs = []
    for name, (A, v) in sq.items():
        assert A == (1, 1, 1), name
        assert v != (0, 0, 0), name
        vecs.append(v)
    assert len({tuple(v) for v in vecs}) == 3


def test_torsion_free_image():
    # no short word of even length acts as a nontrivial finite-order isometry
    for tokens in ([("a", 1), ("b", 1)], [("a", 1), ("b", -1)], [("a", 3), ("b", 1)]):
        m = affine(tokens)
        p = m
        for _ in range(7):
            p = compose(p, m)
            assert p != IDENTITY


def test_normal_form_equality_matches_affine_equality():
    rng = random.Random(0xFACADE)
    agree = 0
    for _ in range(15000):
        t1 = random_tokens(rng, 14)
        t2 = random_tokens(rng, 14)
        nf_eq = from_word(t1, P1) == from_word(t2, P1)
        rep_eq = affine(t1) == affine(t2)
        assert nf_eq == rep_eq, (t1, t2, nf_eq, rep_eq)
        agree += 1
    assert agree == 15000


def test_relator_padding_is_invisible_to_both():
    rng = random.Random(7)
    relator = [("a", 1), ("b", 2), ("a", -1), ("b", 2)]
    for _ in range(3000):
        t = random_tokens(rng, 10)
        padded = t + relator
        assert from_word(t, P1) == from_word(padded, P1)
        assert affine(t) == affine(padded)


def random_g_k_words(rng, k, count):
    """Random words of G(k) whose exponents reach M + 2, so both carries occur."""
    M = 1 << k
    return [random_tokens(rng, 4 * (M + 2), M + 2) for _ in range(count)]


@pytest.mark.parametrize("k", range(2, 7))
def test_relators_of_every_k_map_to_identity(k):
    # k = 1 is test_relators_act_trivially
    M = 1 << k
    assert affine([("a", 1), ("b", M), ("a", -1), ("b", M)]) == IDENTITY
    assert affine([("b", 1), ("a", 2), ("b", -1), ("a", 2)]) == IDENTITY


@pytest.mark.parametrize("k", range(2, 7))
def test_normal_form_keeps_the_image_of_its_word(k):
    P = GroupParams(k)
    for t in random_g_k_words(random.Random(k), k, 400):
        assert affine(from_word(t, P).tokens()) == affine(t), t


@pytest.mark.parametrize("k", range(2, 7))
def test_product_and_inverse_map_to_composition_and_inverse(k):
    P = GroupParams(k)
    rng = random.Random(100 + k)
    for t1, t2 in zip(random_g_k_words(rng, k, 200), random_g_k_words(rng, k, 200)):
        x, y = from_word(t1, P), from_word(t2, P)
        fx, fy = affine(x.tokens()), affine(y.tokens())
        assert affine((x * y).tokens()) == compose(fx, fy), (t1, t2)
        assert affine(x.inverse().tokens()) == invert(fx), t1


@pytest.mark.parametrize("k", range(2, 7))
def test_different_images_give_different_normal_forms(k):
    P = GroupParams(k)
    rng = random.Random(200 + k)
    separated = 0
    for t1, t2 in zip(random_g_k_words(rng, k, 400), random_g_k_words(rng, k, 400)):
        if affine(t1) != affine(t2):
            separated += 1
            assert from_word(t1, P) != from_word(t2, P), (t1, t2)
    # the images must separate most random pairs, or the check says little
    assert separated > 0.9 * 400
