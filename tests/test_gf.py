import hashlib
import random
import time
from itertools import product

import pytest

from a2zeta import gf
from a2zeta.errors import UnsupportedOrder
from a2zeta.gf import (
    GF,
    format_poly,
    padd,
    parse_poly,
    pmul,
    pshift,
    psub,
    ptrim,
    pval,
)
from oracles import pmod_tpow, punit_inverse


def test_unsupported_orders(monkeypatch):
    def no_tables(*args):
        raise AssertionError("tables built for an unsupported q")

    monkeypatch.setattr(gf, "_add_table", no_tables)
    monkeypatch.setattr(gf, "_mul_table", no_tables)
    start = time.perf_counter()
    for q in (1, 6, 10, 12, 1031, 2048, 1000003):
        with pytest.raises(UnsupportedOrder):
            GF(q)
    assert time.perf_counter() - start < 1


# sha256 of the add and mul tables, row by row as bytes, recorded when the
# moduli x^2+x+1, x^3+x+1 and x^2+1 were hard-coded
TABLE_DIGESTS = {
    4: (
        "62d40abfb721c5a0c265c70a68d2e962d3f13be6480239c305f2f0bca8590440",
        "e5e400e15d86822cd32ced3905038afeff90c607537f27fb5c2df36e4fbb38d4",
    ),
    8: (
        "a6b3eec73959471afcdaf027704d6c744982dcfc450913a6105a841e807d5ee5",
        "b2536928a4a4c9602e661dd91d31835bdfef342bee79441c12821e3ffb5a54df",
    ),
    9: (
        "258998982899a881c22fd74bc2e9c9619b1ac28fa209d9dd48d7accc703bb4c7",
        "e0fd6fdbf244caa6285c946bbcc756cdf48620c28aa64611884977701e8be758",
    ),
}


@pytest.mark.parametrize("q", sorted(TABLE_DIGESTS))
def test_prime_power_tables_pinned(q):
    F = GF(q)
    digests = tuple(
        hashlib.sha256(bytes(op(a, b) for a in range(q) for b in range(q))).hexdigest()
        for op in (F.add, F.mul)
    )
    assert digests == TABLE_DIGESTS[q]


# q: (p, k, x^k as an element), the moduli worked out by hand from the rule:
# x^2+x+1, x^3+x+1, x^2+1, x^4+x+1, x^2+2, x^3+2x+1 and x^5+x^2+1
X_TO_THE_K = {
    4: (2, 2, 3),
    8: (2, 3, 3),
    9: (3, 2, 2),
    16: (2, 4, 3),
    25: (5, 2, 3),
    27: (3, 3, 5),
    32: (2, 5, 5),
}


@pytest.mark.parametrize("q", sorted(X_TO_THE_K))
def test_modulus_is_the_first_that_gives_a_field(q):
    p, k, want = X_TO_THE_K[q]
    F = GF(q)
    power = 1
    for _ in range(k):
        power = F.mul(power, p)  # the element p codes x
    assert power == want
    for a, b, c in product(F.elements(), repeat=3):
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.sub(F.add(a, b), b) == a


def test_large_prime_field():
    F = GF(101)
    assert F.mul(2, F.inv(2)) == 1
    assert F.sub(0, 1) == 100


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_unit_inverse(q):
    F = GF(q)
    rng = random.Random(q)
    for _ in range(20):
        u = ptrim([rng.randrange(1, q)] + [rng.randrange(q) for _ in range(4)])
        inv = punit_inverse(F, u, 8)
        assert pmod_tpow(pmul(F, u, inv), 8) == (1,)


def test_poly_helpers():
    F = GF(3)
    a = (1, 2)
    b = (0, 1, 1)
    assert padd(F, a, b) == (1, 0, 1)
    assert psub(F, padd(F, a, b), b) == a
    assert pval(b) == 1 and pval(()) is None
    assert pshift(a, 2) == (0, 0, 1, 2)
    assert pmul(F, a, b) == ptrim([0, 1, 0, 2])


def test_parse_and_format_round_trip():
    F = GF(3)
    for text, expect in (
        ("1+t^2", (1, 0, 1)),
        ("2t", (0, 2)),
        ("0", ()),
        ("1-t", (1, 2)),
        ("t+t", (0, 2)),
    ):
        assert parse_poly(F, text) == expect
    for poly in ((1, 0, 2), (0, 1), (2,), ()):
        assert parse_poly(F, format_poly(poly)) == poly
