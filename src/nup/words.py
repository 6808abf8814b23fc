"""Exact element arithmetic in the groups G(k) = <a, b | a b^M a^-1 b^M, b a^2 b^-1 a^2>.

Here M = 2^k for a fixed integer k >= 1.  Every element of G(k) has a unique
canonical form

    a^(2u) * b^(M*v) * a^alpha * b^(s_1) a b^(s_2) a ... b^(s_l) a * b^beta

where u and v are integers, alpha is 0 or 1, the interior exponents s_i lie in
[1, M-1] and the trailing exponent beta lies in [0, M-1].  The subgroup
generated by a^2 and b^M is free abelian of rank 2 and the defining relations
say exactly how the generators normalize it:

    a b^M a^-1 = b^-M        b a^2 b^-1 = a^-2

In particular a^2 and b^M commute with each other, moving b^(+-M) across a
single letter a negates its exponent, and moving a^(+-2) across a single
letter b negates its exponent.  All arithmetic below keeps words canonical by
pushing a^(+-2) / b^(+-M) overflow leftward with those two transport rules,
one letter block at a time, so each operation costs O(word length) exact
integer steps.  Integers are Python ints, so exponents never overflow.

A NormalForm is the tuple (k, u, v, alpha, l, (s_1, ..., s_l), beta), so
element equality, hashing and the canonical order are tuple equality, hashing
and order.  NormalForm values are immutable; every operation is a pure
function, safe for concurrent use.
"""

from __future__ import annotations

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


class _Accum:
    """Mutable word-in-progress used internally by the arithmetic.

    Holds the canonical-form fields plus a running sum of the interior
    exponents so parity decisions are O(1).
    """

    __slots__ = ("M", "u", "v", "alpha", "syl", "beta", "ssum")

    def __init__(self, M: int, w: "NormalForm | None" = None):
        self.M = M
        if w is None:
            self.u = self.v = self.alpha = self.beta = self.ssum = 0
            self.syl: list[int] = []
        else:  # start from the normal form w, unpacked once
            _, self.u, self.v, self.alpha, _, syl, self.beta = w
            self.syl = list(syl)
            self.ssum = sum(syl)

    def push_b(self, e: int) -> None:
        # right-multiply by b^e; overflow multiples of M bubble left past the
        # alpha + l letters a, flipping sign once per letter passed
        t = self.beta + e
        beta = t % self.M
        carry = (t - beta) // self.M
        self.beta = beta
        if carry:
            if (self.alpha + len(self.syl)) & 1:
                self.v -= carry
            else:
                self.v += carry

    def push_a2(self, t: int) -> None:
        # right-multiply by a^(2t); it bubbles left past every letter b in the
        # coset part (ssum + beta letters), flipping sign once per letter
        if (self.ssum + self.beta) & 1:
            self.u -= t
        else:
            self.u += t

    def push_a(self) -> None:
        if self.beta:
            # trailing block becomes interior, new trailing exponent is 0
            self.syl.append(self.beta)
            self.ssum += self.beta
            self.beta = 0
        elif self.syl:
            # word ends "... b^(s_l) a"; appending a forms a^2 which bubbles
            # left past all interior b letters, then s_l becomes trailing
            self.u += -1 if (self.ssum & 1) else 1
            last = self.syl.pop()
            self.ssum -= last
            self.beta = last
        elif self.alpha:
            self.u += 1
            self.alpha = 0
        else:
            self.alpha = 1

    def push_token(self, gen: str, exp: int) -> None:
        if gen == "b":
            self.push_b(exp)
        elif gen == "a":
            t, r = divmod(exp, 2)
            if t:
                self.push_a2(t)
            if r:
                self.push_a()
        else:
            raise ValueError(f"unknown generator {gen!r}")

    def freeze(self, k: int) -> "NormalForm":
        return NormalForm._make(k, self.u, self.v, self.alpha, tuple(self.syl), self.beta)


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
        # fast path for values produced by _Accum, which already maintains the
        # range invariants
        return tuple.__new__(cls, (k, u, v, alpha, len(syllables), syllables, beta))

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__, which takes no n_syllables
        return self.k, self.u, self.v, self.alpha, self.syllables, self.beta

    # -- structure ----------------------------------------------------------

    @property
    def params(self) -> GroupParams:
        return GroupParams(self.k)

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
        k, u, v, alpha, _, syllables, beta = other
        if self.k != k:
            raise ValueError("cannot multiply elements of different groups")
        acc = _Accum(1 << k, self)
        if u:
            acc.push_a2(u)
        if v:
            acc.push_b(v << k)
        if alpha:
            acc.push_a()
        for s in syllables:
            acc.push_b(s)
            acc.push_a()
        if beta:
            acc.push_b(beta)
        return acc.freeze(k)

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
        k, u, v, alpha, _, syllables, beta = self
        acc = _Accum(1 << k)
        if beta:
            acc.push_b(-beta)
        for s in reversed(syllables):
            acc.push_token("a", -1)
            acc.push_b(-s)
        if alpha:
            acc.push_token("a", -1)
        if v:
            acc.push_b(-(v << k))
        if u:
            acc.push_a2(-u)
        return acc.freeze(k)

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
        acc = _Accum(1 << self.k, self)
        acc.push_token(gen, sign)
        return acc.freeze(self.k)

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
                s = _atom(w.k, "a", 1)
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
        out: list[Token] = []
        if self.u:
            out.append(("a", 2 * self.u))
        if self.v:
            out.append(("b", self.v << self.k))
        if self.alpha:
            out.append(("a", 1))
        for s in self.syllables:
            out.append(("b", s))
            out.append(("a", 1))
        if self.beta:
            out.append(("b", self.beta))
        return tuple(out)

    def __str__(self):
        parts = [g if e == 1 else f"{g}^{e}" for g, e in self.tokens()]
        return " ".join(parts) if parts else "1"

    def __repr__(self):
        return f'NormalForm(k={self.k}, "{self}")'


def _atom(k: int, gen: str, sign: int) -> NormalForm:
    M = 1 << k
    if gen == "a":
        return NormalForm._make(k, 0, 0, 1, (), 0) if sign > 0 else NormalForm._make(k, -1, 0, 1, (), 0)
    return NormalForm._make(k, 0, 0, 0, (), 1) if sign > 0 else NormalForm._make(k, 0, -1, 0, (), M - 1)


def identity(params: GroupParams) -> NormalForm:
    return NormalForm._make(params.k, 0, 0, 0, (), 0)


def generator(params: GroupParams, gen: str, sign: int = 1) -> NormalForm:
    """The NormalForm of a single generator letter."""
    if gen not in ("a", "b") or sign not in (1, -1):
        raise ValueError(f"bad generator letter {gen!r}^{sign}")
    return _atom(params.k, gen, sign)


def from_word(word: Iterable[Token], params: GroupParams) -> NormalForm:
    """Normal form of a product of generator powers, folded left to right."""
    acc = _Accum(params.modulus)
    for gen, exp in word:
        if exp == 0:
            raise ValueError("zero exponent in generator word")
        acc.push_token(gen, exp)
    return acc.freeze(params.k)


def parse(text: str) -> tuple[Token, ...]:
    """Parse the word grammar:  word := "1" | term+ ,  term := gen exp?.

    Generators are a, b, A, B with A = a^-1 and B = b^-1; an exponent is
    "^" "-"? digits with zero forbidden; whitespace between terms is ignored.
    """
    if text.strip() == "1":
        return ()
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c not in "abAB":
            raise ParseError(f"expected generator a, b, A or B, found {c!r}", i)
        gen = c.lower()
        sign = -1 if c.isupper() else 1
        i += 1
        exp = 1
        if i < n and text[i] == "^":
            start = i
            i += 1
            neg = False
            if i < n and text[i] == "-":
                neg = True
                i += 1
            d0 = i
            while i < n and text[i].isdigit():
                i += 1
            if i == d0:
                raise ParseError("expected digits after '^'", start)
            exp = int(text[d0:i])
            if exp == 0:
                raise ParseError("zero exponent is not allowed", d0)
            if neg:
                exp = -exp
        tokens.append((gen, sign * exp))
    if not tokens:
        raise ParseError("empty word", 0)
    return tuple(tokens)


def from_string(text: str, params: GroupParams) -> NormalForm:
    return from_word(parse(text), params)


def to_string(w: NormalForm) -> str:
    return str(w)
