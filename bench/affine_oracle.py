"""Independent exact oracle for the group G(1), used to check nup's outputs.

G(1) = < a, b | a b^2 a^-1 b^2, b a^2 b^-1 a^2 > acts faithfully on R^3 by
the isometries

    a : t -> ( t1 + 1/2, -t2 + 1/2, -t3       )
    b : t -> (-t1,        t2 + 1/2, -t3 + 1/2 )

so two words are equal in G(1) exactly when their isometries are equal.  An
isometry is stored as (diagonal signs, doubled translation), which keeps the
arithmetic in exact integers.  This module has its own word parser and uses
nothing from the program under test.
"""

from __future__ import annotations

from collections import Counter

IDENTITY = ((1, 1, 1), (0, 0, 0))


def compose(f, g):
    """The map t -> f(g(t)), i.e. the group product f * g."""
    (A, v), (B, w) = f, g
    return (
        (A[0] * B[0], A[1] * B[1], A[2] * B[2]),
        (A[0] * w[0] + v[0], A[1] * w[1] + v[1], A[2] * w[2] + v[2]),
    )


def invert(f):
    A, v = f  # diagonal +-1 matrices are their own inverses
    return (A, (-A[0] * v[0], -A[1] * v[1], -A[2] * v[2]))


_GEN = {"a": ((1, -1, -1), (1, 1, 0)), "b": ((-1, 1, -1), (0, 1, 1))}
_GEN["A"] = invert(_GEN["a"])
_GEN["B"] = invert(_GEN["b"])


def parse_word(text: str) -> list[tuple[str, int]]:
    """Letters a, b, A, B (A = a^-1, B = b^-1) with optional ^[-]digits; "1" is the identity."""
    text = "".join(text.split())
    if text == "1":
        return []
    out: list[tuple[str, int]] = []
    i = 0
    while i < len(text):
        letter = text[i]
        if letter not in "abAB":
            raise ValueError(f"bad letter {letter!r} in {text!r}")
        i += 1
        exp = 1
        if i < len(text) and text[i] == "^":
            j = i + 1
            if j < len(text) and text[j] == "-":
                j += 1
            k = j
            while k < len(text) and text[k].isdigit():
                k += 1
            if k == j:
                raise ValueError(f"missing exponent in {text!r}")
            exp = int(text[i + 1 : k])
            if exp == 0:
                raise ValueError(f"zero exponent in {text!r}")
            i = k
        out.append((letter, exp))
    if not out:
        raise ValueError("empty word")
    return out


def element(text: str):
    m = IDENTITY
    for letter, exp in parse_word(text):
        step = _GEN[letter] if exp > 0 else _GEN[letter.swapcase()]
        for _ in range(abs(exp)):
            m = compose(m, step)
    return m


def read_set_file(path) -> list[str]:
    """Words of a set file: one per line, '#' comments, optional '| label'."""
    words = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.split("#", 1)[0].split("|", 1)[0].strip()
            if word:
                words.append(word)
    return words


def square_stats(maps) -> tuple[int, int]:
    """(distinct products, uniquely represented products) of S*S."""
    counts = Counter(compose(x, y) for x in maps for y in maps)
    return len(counts), sum(1 for c in counts.values() if c == 1)


def is_inverse_closed(maps) -> bool:
    present = set(maps)
    return all(invert(m) in present for m in maps)


def self_check() -> list[str]:
    """Problems found in the oracle itself; empty when it is sound."""
    problems = []
    for relator in ("a b^2 A b^2", "b a^2 B a^2"):
        if element(relator) != IDENTITY:
            problems.append(f"relator {relator} does not act trivially")
    for word in ("a", "b", "ab", "ba", "a^2", "b^2", "abab"):
        if element(word) == IDENTITY:
            problems.append(f"{word} acts trivially")
    if element("ab") == element("ba"):
        problems.append("ab and ba coincide")
    if element("a^-3 b^2") != compose(invert(element("a^3")), element("b b")):
        problems.append("exponent parsing disagrees with repeated letters")
    # {1, a, b}: a and b have two factorizations each, the other five products one
    if square_stats([element(w) for w in ("1", "a", "b")]) != (7, 5):
        problems.append("square of {1, a, b} is not 7 distinct / 5 unique")
    for bad in ("", "c", "a^", "a^0"):
        try:
            parse_word(bad)
        except ValueError:
            continue
        problems.append(f"parser accepted {bad!r}")
    return problems
