"""Exact element arithmetic in the groups G(k) = <a, b | a b^M a^-1 b^M, b a^2 b^-1 a^2>.

Here M = 2^k for a fixed integer k >= 1.  Every element of G(k) has a unique
canonical form

    a^(2u) * b^(M*v) * a^alpha * b^(s_1) a b^(s_2) a ... b^(s_l) a * b^beta

where u and v are integers, alpha is 0 or 1, the interior exponents s_i lie in
[1, M-1] and the trailing exponent beta lies in [0, M-1].  The subgroup
generated by a^2 and b^M is free abelian of rank 2 and the defining relations
say exactly how the generators normalize it:

    a b^M a^-1 = b^-M        b a^2 b^-1 = a^-2

All arithmetic is one fold, _fold: it right-multiplies a normal form by a
word of generator powers, moving each a^(+-2) and b^(+-M) overflow leftward
with the two transport rules these relations give (stated at _fold).  A
product folds the right factor's canonical word (tokens()) into the left
factor, an inverse folds the reversed, negated word into the identity, and
from_word folds its word into the identity, so each operation costs
O(word length) exact integer steps.  Integers are Python ints, so exponents
never overflow.

A NormalForm is the tuple (k, u, v, alpha, l, (s_1, ..., s_l), beta), so
element equality, hashing and the canonical order are tuple equality, hashing
and order.  NormalForm values are immutable; every operation is a pure
function, safe for concurrent use.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Iterable, Sequence

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"

Token = tuple[str, int]

# the largest k accepted; 2^k is built exactly, so a larger k is refused first
MAX_K = 64


class ParseError(ValueError):
    """Syntax error in the word grammar, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GroupParams(namedtuple("GroupParams", "k")):
    """The single parameter 1 <= k <= MAX_K fixing the group; the relator exponent is 2^k."""

    __slots__ = ()

    def __new__(cls, k: int):
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        if k > MAX_K:
            raise ValueError(f"k = {k} is above the largest supported k, {MAX_K}")
        return super().__new__(cls, k)

    @property
    def modulus(self) -> int:
        """M = 2^k, the b-exponent appearing in the first relator."""
        return 1 << self.k


class NormalForm(namedtuple("NormalForm", "k u v alpha n_syllables syllables beta")):
    """Canonical representative of one group element; immutable and hashable.

    A NormalForm is its canonical tuple (k, u, v, alpha, n_syllables,
    syllables, beta), where n_syllables = len(syllables).  Two NormalForms
    name the same element exactly when their tuples are equal, so tuple
    equality and hashing are element equality, and within one group tuple
    order is the canonical order: by u, v, alpha, the number of syllables,
    the syllables and beta.  Sort elements directly.
    """

    __slots__ = ()

    def __new__(cls, k: int, u: int, v: int, alpha: int, syllables: Sequence[int] = (), beta: int = 0):
        if k < 1:
            raise ValueError("k must be >= 1")
        M = 1 << k
        if alpha not in (0, 1):
            raise ValueError(f"alpha must be 0 or 1, got {alpha}")
        if not 0 <= beta < M:
            raise ValueError(f"trailing exponent must lie in [0, {M - 1}], got {beta}")
        syllables = tuple(syllables)
        for s in syllables:
            if not 1 <= s < M:
                raise ValueError(f"interior exponent must lie in [1, {M - 1}], got {s}")
        return tuple.__new__(cls, (k, u, v, alpha, len(syllables), syllables, beta))

    @classmethod
    def _make(cls, k, u, v, alpha, syllables, beta):
        # fast path for values produced by _fold, which already keeps the
        # range invariants
        return tuple.__new__(cls, (k, u, v, alpha, len(syllables), syllables, beta))

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, which takes no n_syllables
        return self.k, self.u, self.v, self.alpha, self.syllables, self.beta

    # -- structure ----------------------------------------------------------

    def is_identity(self) -> bool:
        return self.u == 0 and self.v == 0 and self.alpha == 0 and not self.syllables and self.beta == 0

    def syllable_count(self) -> int:
        """Number of alternating coset factors after the a^2/b^M part."""
        return self.alpha + 2 * len(self.syllables) + (1 if self.beta else 0)

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        # unpacked once: a field read through the namedtuple costs several
        # times a local one
        k, u, v, alpha, _, syllables, beta = self
        if other.k != k:
            raise ValueError("cannot multiply elements of different groups")
        return _fold(k, u, v, alpha, syllables, beta, other.tokens())

    # A NormalForm is a tuple, but repeating or concatenating one means
    # nothing for a group element.  Returning NotImplemented would let Python
    # fall back to tuple repeat and concat, so these raise.

    def __rmul__(self, other):
        raise TypeError(f"unsupported operand type(s) for *: '{type(other).__name__}' and 'NormalForm'")

    def __add__(self, other):
        raise TypeError(f"unsupported operand type(s) for +: 'NormalForm' and '{type(other).__name__}'")

    def __radd__(self, other):
        raise TypeError(f"unsupported operand type(s) for +: '{type(other).__name__}' and 'NormalForm'")

    def inverse(self) -> "NormalForm":
        return _fold(self.k, 0, 0, 0, (), 0, [(g, -e) for g, e in reversed(self.tokens())])

    __invert__ = inverse

    def __pow__(self, n: int) -> "NormalForm":
        if n < 0:
            return self.inverse() ** (-n)
        result = identity(GroupParams(self.k))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def times_gen(self, gen: str, sign: int = 1) -> "NormalForm":
        """Right-multiply by a single generator letter a, a^-1, b or b^-1."""
        if gen not in ("a", "b") or sign not in (1, -1):
            raise ValueError(f"bad generator letter {gen!r}^{sign}")
        k, u, v, alpha, _, syllables, beta = self
        return _fold(k, u, v, alpha, syllables, beta, ((gen, sign),))

    # -- invariants ----------------------------------------------------------

    def sigma_a(self) -> int:
        """Parity character of the total a-exponent, valued in {+1, -1}."""
        return -1 if ((self.alpha + len(self.syllables)) & 1) else 1

    def sigma_b(self) -> int:
        """Parity character of the total b-exponent, valued in {+1, -1}."""
        return -1 if ((sum(self.syllables) + self.beta) & 1) else 1

    def abelianization(self) -> tuple[int, int]:
        """Image in Z/4 x Z/2M: (total a-exponent mod 4, total b-exponent mod 2M).

        Both relators have a-degree divisible by 4 and b-degree divisible by
        2M, so this is a well-defined homomorphism and an independent
        necessary condition for element equality.
        """
        M = 1 << self.k
        a_total = 2 * self.u + self.alpha + len(self.syllables)
        b_total = M * self.v + sum(self.syllables) + self.beta
        return (a_total % 4, b_total % (2 * M))

    def classify(self) -> str:
        """Return ELLIPTIC or HYPERBOLIC.

        Cyclically reduce by conjugating away a leading coset letter whenever
        the first and last coset factors live in the same vertex group; the
        element is elliptic exactly when the reduced coset length is <= 1.
        """
        w = self
        n = w.syllable_count()
        while n >= 2:
            lead = "a" if w.alpha else "b"
            trail = "b" if w.beta else "a"
            if lead != trail:
                break
            if lead == "a":
                s = NormalForm._make(w.k, 0, 0, 1, (), 0)
            else:
                s = NormalForm._make(w.k, 0, 0, 0, (), w.syllables[0])
            w = s.inverse() * w * s
            n2 = w.syllable_count()
            if n2 >= n:
                raise AssertionError("cyclic reduction failed to shorten")
            n = n2
        return ELLIPTIC if n <= 1 else HYPERBOLIC

    # -- printing ------------------------------------------------------------

    def tokens(self) -> tuple[Token, ...]:
        """Canonical letter-block expansion of the normal form."""
        k, u, v, alpha, _, syllables, beta = self
        out: list[Token] = []
        if u:
            out.append(("a", 2 * u))
        if v:
            out.append(("b", v << k))
        if alpha:
            out.append(("a", 1))
        for s in syllables:
            out.append(("b", s))
            out.append(("a", 1))
        if beta:
            out.append(("b", beta))
        return tuple(out)

    def __str__(self):
        parts = [g if e == 1 else f"{g}^{e}" for g, e in self.tokens()]
        return " ".join(parts) if parts else "1"

    def __repr__(self):
        return f'NormalForm(k={self.k}, "{self}")'


def _fold(k: int, u: int, v: int, alpha: int, syl: Sequence[int], beta: int, word: Iterable[Token]) -> NormalForm:
    """Right-multiply the normal form with fields (u, v, alpha, syl, beta) by a word.

    The word is an iterable of (generator, exponent) tokens; the first token
    with a zero exponent or a generator other than a, b raises ValueError.
    A power b^e adds to beta, and the multiple of M that overflows [0, M-1]
    moves left to v past the alpha + l letters a; a^(2t) moves left to u past
    the sum(syl) + beta letters b.  The two transport rules decide the signs:

        b^(+-M) passing a letter a flips its sign:   a b^M = b^-M a
        a^(+-2) passing a letter b flips its sign:   b a^2 = a^-2 b

    A lone a closes a nonzero trailing block into an interior syllable.  When
    the word already ends in a, it forms a^2, which moves left to u; the last
    syllable then becomes the trailing block, or alpha drops to 0.  Each
    token costs O(1) integer steps.
    """
    syl = list(syl)
    ssum = sum(syl)  # the interior b letters, so the a^2 sign is O(1)
    for gen, exp in word:
        if gen == "b" and exp:
            t = beta + exp
            carry = t >> k
            beta = t - (carry << k)
            if carry:
                v += -carry if (alpha + len(syl)) & 1 else carry
        elif gen == "a" and exp:
            t = exp >> 1
            if t:
                u += -t if (ssum + beta) & 1 else t
            if exp & 1:
                if beta:
                    syl.append(beta)
                    ssum += beta
                    beta = 0
                elif syl:
                    u += -1 if ssum & 1 else 1
                    beta = syl.pop()
                    ssum -= beta
                elif alpha:
                    u += 1
                    alpha = 0
                else:
                    alpha = 1
        elif exp == 0:
            raise ValueError("zero exponent in generator word")
        else:
            raise ValueError(f"unknown generator {gen!r}")
    return NormalForm._make(k, u, v, alpha, tuple(syl), beta)


def identity(params: GroupParams) -> NormalForm:
    return NormalForm._make(params.k, 0, 0, 0, (), 0)


def generator(params: GroupParams, gen: str, sign: int = 1) -> NormalForm:
    """The NormalForm of a single generator letter."""
    if gen not in ("a", "b") or sign not in (1, -1):
        raise ValueError(f"bad generator letter {gen!r}^{sign}")
    return from_word(((gen, sign),), params)


def from_word(word: Iterable[Token], params: GroupParams) -> NormalForm:
    """Normal form of a product of generator powers, folded left to right."""
    return _fold(params.k, 0, 0, 0, (), 0, word)


# an exponent, and a number of a set-file label: an optional '-' and ASCII
# digits, since int() also takes '_', '+' and other scripts' digits
INTEGER = re.compile("-?[0-9]+")
# one term: blanks, then a generator with an optional exponent, or any other
# character; every non-blank starts a match, so finditer skips only blanks
_TERM = re.compile(rf"\s*(?:([abAB])(\^({INTEGER.pattern})?)?|(\S))")


def parse(text: str) -> tuple[Token, ...]:
    """Parse the word grammar:  word := "1" | term+ ,  term := gen exp?.

    Generators are a, b, A, B with A = a^-1 and B = b^-1; an exponent is
    "^" INTEGER with zero forbidden; whitespace between terms is ignored.
    """
    if text.strip() == "1":
        return ()
    tokens: list[Token] = []
    for m in _TERM.finditer(text):
        gen, caret, exp, other = m.groups()
        if other:
            raise ParseError(f"expected generator a, b, A or B, found {other!r}", m.start(4))
        if caret and not exp:
            raise ParseError("expected digits after '^'", m.start(2))
        e = int(exp) if exp else 1
        if e == 0:
            raise ParseError("zero exponent is not allowed", m.start(3) + (exp[0] == "-"))
        tokens.append((gen.lower(), -e if gen.isupper() else e))
    if not tokens:
        raise ParseError("empty word", 0)
    return tuple(tokens)


def from_string(text: str, params: GroupParams) -> NormalForm:
    return from_word(parse(text), params)
