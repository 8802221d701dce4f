"""Semiring descriptors for sparse matrix algebra.

A semiring bundles the fold operator (add), the combine operator (mul), their
identities, the numpy ufuncs that apply both to arrays and the dtype of
those arrays, which is also the values' wire codec (storage.semiring_codec).
Matrix code treats entries whose value equals `zero` as structural
non-zeros: they are kept, never dropped.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Semiring:
    """Value algebra used by every kernel.

    add/mul must satisfy the usual semiring axioms with `zero` the additive
    identity and annihilator and `one` the multiplicative identity. `is_ring`
    marks semirings whose add has inverses (required by the algebraic update
    path for value decreases/removals expressed through add).

    np_add/np_mul are add/mul as ufuncs over np_dtype arrays. The kernels,
    merges and aggregations compute with these alone, so a user-built
    semiring of any numeric dtype needs no registration; add/mul are the
    scalar reference arithmetic. plus-times-i64 array arithmetic wraps
    modulo 2**64 (numpy int64), still a ring, so the algebraic path stays
    exact. The boolean lane is numpy bool, which stores only 0 or 1, under
    bitwise or/and.
    """

    name: str
    add: Callable
    mul: Callable
    zero: object
    one: object
    is_ring: bool
    np_dtype: np.dtype = field(compare=False)
    np_add: np.ufunc = field(compare=False)
    np_mul: np.ufunc = field(compare=False)


PLUS_TIMES_I64 = Semiring(
    name="plus-times-i64",
    add=operator.add,
    mul=operator.mul,
    zero=0,
    one=1,
    is_ring=True,
    np_dtype=np.dtype("<i8"),
    np_add=np.add,
    np_mul=np.multiply,
)

PLUS_TIMES_F64 = Semiring(
    name="plus-times-f64",
    add=operator.add,
    mul=operator.mul,
    zero=0.0,
    one=1.0,
    is_ring=True,
    np_dtype=np.dtype("<f8"),
    np_add=np.add,
    np_mul=np.multiply,
)

# Tropical algebra: fold = min, combine = +, so "zero" is +inf and "one" is 0.
MIN_PLUS = Semiring(
    name="min-plus",
    add=min,
    mul=operator.add,
    zero=math.inf,
    one=0.0,
    is_ring=False,
    np_dtype=np.dtype("<f8"),
    np_add=np.minimum,
    np_mul=np.add,
)

BOOLEAN = Semiring(
    name="bool",
    add=operator.or_,
    mul=operator.and_,
    zero=False,
    one=True,
    is_ring=False,
    np_dtype=np.dtype(bool),
    np_add=np.bitwise_or,
    np_mul=np.bitwise_and,
)

REGISTRY = {sr.name: sr for sr in (PLUS_TIMES_I64, PLUS_TIMES_F64, MIN_PLUS, BOOLEAN)}


def by_name(name: str) -> Semiring:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown semiring {name!r}; known: {sorted(REGISTRY)}") from None
