"""Algebraic axioms and codec round-trips for the value domains."""

import math

import numpy as np
import pytest

from dynspgemm import (
    BOOLEAN,
    MIN_PLUS,
    PLUS_TIMES_F64,
    PLUS_TIMES_I64,
    REGISTRY,
    by_name,
)
from helpers import decode_values


def _samples(sr, rng, count):
    if sr is BOOLEAN:
        return [bool(b) for b in rng.integers(0, 2, size=count)]
    if sr is MIN_PLUS:
        vals = [float(v) for v in rng.integers(-50, 51, size=count)]
        # sprinkle the additive identity in as well
        for idx in rng.choice(count, size=count // 20, replace=False):
            vals[idx] = math.inf
        return vals
    if sr is PLUS_TIMES_F64:
        return [float(v) for v in rng.integers(-50, 51, size=count)]
    return [int(v) for v in rng.integers(-50, 51, size=count)]


@pytest.mark.parametrize("sr", list(REGISTRY.values()), ids=lambda s: s.name)
def test_axioms_hold_on_random_triples(sr):
    rng = np.random.default_rng(7)
    n = 10_000
    xs, ys, zs = (_samples(sr, rng, n) for _ in range(3))
    add, mul, zero, one = sr.add, sr.mul, sr.zero, sr.one
    for x, y, z in zip(xs, ys, zs):
        assert add(add(x, y), z) == add(x, add(y, z))
        assert add(x, y) == add(y, x)
        assert add(x, zero) == x
        assert mul(x, one) == x and mul(one, x) == x
        assert mul(x, zero) == zero and mul(zero, x) == zero
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert mul(add(y, z), x) == add(mul(y, x), mul(z, x))


def test_ring_flags_and_additive_inverses():
    assert PLUS_TIMES_I64.is_ring and PLUS_TIMES_F64.is_ring
    assert not MIN_PLUS.is_ring and not BOOLEAN.is_ring
    rng = np.random.default_rng(11)
    for sr in (PLUS_TIMES_I64, PLUS_TIMES_F64):
        for x in _samples(sr, rng, 1000):
            assert sr.add(x, -x) == sr.zero


def test_handpicked_values():
    assert PLUS_TIMES_I64.add(2, 3) == 5
    assert PLUS_TIMES_I64.mul(2, 3) == 6
    assert MIN_PLUS.add(2.0, 3.0) == 2.0
    assert MIN_PLUS.mul(2.0, 3.0) == 5.0
    assert MIN_PLUS.zero == math.inf and MIN_PLUS.one == 0.0
    assert BOOLEAN.add(True, False) is True
    assert BOOLEAN.mul(True, False) is False
    assert PLUS_TIMES_I64.zero == 0 and PLUS_TIMES_I64.one == 1


@pytest.mark.parametrize("sr", list(REGISTRY.values()), ids=lambda s: s.name)
def test_codec_round_trip(sr):
    rng = np.random.default_rng(13)
    vals = _samples(sr, rng, 257)
    blob = sr.encode_values(vals)
    assert len(blob) == sr.value_width * len(vals)
    back = decode_values(sr, blob, len(vals))
    assert list(back) == vals
    assert list(decode_values(sr, b"", 0)) == []


def test_value_widths():
    assert PLUS_TIMES_I64.value_width == 8
    assert PLUS_TIMES_F64.value_width == 8
    assert MIN_PLUS.value_width == 8
    assert BOOLEAN.value_width == 1


def test_infinity_survives_codec():
    blob = MIN_PLUS.encode_values([math.inf, 3.0])
    assert list(decode_values(MIN_PLUS, blob, 2)) == [math.inf, 3.0]


def test_registry_lookup():
    for name, sr in REGISTRY.items():
        assert sr.name == name
        assert by_name(name) is sr
    with pytest.raises(KeyError):
        by_name("definitely-not-a-semiring")
    assert sorted(REGISTRY) == ["bool", "min-plus", "plus-times-f64",
                                "plus-times-i64"]
