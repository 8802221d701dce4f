"""Algebraic axioms and codec round-trips for the value domains."""

import math
import struct

import numpy as np
import pytest

from dynspgemm import (
    BOOLEAN,
    MIN_PLUS,
    PLUS_TIMES_F64,
    PLUS_TIMES_I64,
    REGISTRY,
    DcsrBlock,
    by_name,
    dcsr_deserialize,
    dcsr_serialize,
    semiring_codec,
)


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


_HEADER = struct.Struct("<4sHHQQQ")   # magic, version, width, shape, nnz


def _value_bytes(codec, vals) -> bytes:
    """The value part of dcsr_serialize's message for a one-row block
    holding vals."""
    n = len(vals)
    block = DcsrBlock(1, max(n, 1), np.arange(n),
                      np.asarray(vals, dtype=codec.dtype))
    return dcsr_serialize(block, codec)[_HEADER.size + 8 * n:]


def _decode(codec, blob: bytes, count: int) -> list:
    """Python values of count values of codec, decoded by dcsr_deserialize
    from the message of a one-row block."""
    head = _HEADER.pack(b"DCSR", 2, codec.width, 1, max(count, 1), count)
    keys = np.arange(count, dtype="<i8").tobytes()
    return dcsr_deserialize(head + keys + blob, codec).vals.tolist()


@pytest.mark.parametrize("sr", list(REGISTRY.values()), ids=lambda s: s.name)
def test_codec_round_trip(sr):
    rng = np.random.default_rng(13)
    vals = _samples(sr, rng, 257)
    codec = semiring_codec(sr)
    blob = _value_bytes(codec, vals)
    assert len(blob) == codec.width * len(vals)
    back = _decode(codec, blob, len(vals))
    assert list(back) == vals
    assert list(_decode(codec, b"", 0)) == []


def test_value_widths():
    assert semiring_codec(PLUS_TIMES_I64).width == 8
    assert semiring_codec(PLUS_TIMES_F64).width == 8
    assert semiring_codec(MIN_PLUS).width == 8
    assert semiring_codec(BOOLEAN).width == 1


def test_infinity_survives_codec():
    codec = semiring_codec(MIN_PLUS)
    blob = _value_bytes(codec, [math.inf, 3.0])
    assert list(_decode(codec, blob, 2)) == [math.inf, 3.0]


def test_registry_lookup():
    for name, sr in REGISTRY.items():
        assert sr.name == name
        assert by_name(name) is sr
    with pytest.raises(KeyError):
        by_name("definitely-not-a-semiring")
    assert sorted(REGISTRY) == ["bool", "min-plus", "plus-times-f64",
                                "plus-times-i64"]
