import random
import sys
from pathlib import Path

import pytest

from nup.words import GroupParams, from_word

# bench/affine_oracle.py is the exact Z^3 representation of G(1) that the
# tests check the k = 1 arithmetic against; it imports nothing from nup
sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_tokens(rng: random.Random, max_letters: int = 12, max_exp: int = 3):
    """Random generator word; total letter count (sum of |exponents|) <= max_letters."""
    tokens = []
    remaining = rng.randrange(max_letters + 1)
    while remaining > 0:
        e = rng.randint(1, min(max_exp, remaining))
        if rng.random() < 0.5:
            e = -e
        tokens.append((rng.choice("ab"), e))
        remaining -= abs(e)
    return tokens


def random_element(rng: random.Random, params: GroupParams, max_letters: int = 12):
    return from_word(random_tokens(rng, max_letters), params)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
