"""Square process grid and contiguous block partitioning of matrix indices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ProcessGrid:
    """q x q grid over p = q*q ranks, rank = row * q + col (row-major)."""

    q: int

    @classmethod
    def for_ranks(cls, p: int) -> "ProcessGrid":
        q = math.isqrt(p)
        if q * q != p:
            raise ValueError(f"rank count {p} is not a perfect square")
        if p <= 0:
            raise ValueError("need at least one rank")
        return cls(q)

    @property
    def p(self) -> int:
        return self.q * self.q

    def rank_of(self, i: int, j: int) -> int:
        if not (0 <= i < self.q and 0 <= j < self.q):
            raise ValueError(f"grid coordinates ({i}, {j}) outside a "
                             f"{self.q}x{self.q} grid")
        return i * self.q + j

    def coords_of(self, rank: int) -> tuple[int, int]:
        if not 0 <= rank < self.p:
            raise ValueError(f"rank {rank} outside [0, {self.p})")
        return divmod(rank, self.q)

    def transpose_rank(self, rank: int) -> int:
        i, j = self.coords_of(rank)
        return self.rank_of(j, i)

    def row_members(self, i: int) -> list[int]:
        return [self.rank_of(i, j) for j in range(self.q)]

    def col_members(self, j: int) -> list[int]:
        return [self.rank_of(i, j) for i in range(self.q)]


def split_range(n: int, q: int) -> list[int]:
    """Balanced contiguous split: first n % q parts get ceil(n/q), rest floor."""
    hi, r = divmod(n, q)
    return [hi + 1 if k < r else hi for k in range(q)]


class BlockPartition:
    """Maps global (row, col) indices of an n_rows x n_cols matrix onto a q x q
    grid of contiguous blocks. The same balanced split is used on both axes, so
    the k-th row range and the k-th column range of a square dimension agree.
    """

    def __init__(self, n_rows: int, n_cols: int, q: int):
        if q <= 0:
            raise ValueError("grid side must be positive")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.q = q
        self.row_sizes = split_range(n_rows, q)
        self.col_sizes = split_range(n_cols, q)
        self.row_starts = _starts(self.row_sizes)
        self.col_starts = _starts(self.col_sizes)

    # ownership -----------------------------------------------------------
    def owner_grid_rows(self, rows: np.ndarray) -> np.ndarray:
        """The grid row owning each of an array of in-range row indices."""
        return np.searchsorted(self.row_starts, rows, side="right") - 1

    def owner_grid_cols(self, cols: np.ndarray) -> np.ndarray:
        """The grid column owning each of an array of in-range column
        indices."""
        return np.searchsorted(self.col_starts, cols, side="right") - 1

    # translations --------------------------------------------------------
    def to_global(self, gi: int, gj: int, li: int, lj: int) -> tuple[int, int]:
        if not (0 <= li < self.row_sizes[gi] and 0 <= lj < self.col_sizes[gj]):
            raise ValueError(f"local index ({li}, {lj}) outside block "
                             f"({gi}, {gj})")
        return self.row_starts[gi] + li, self.col_starts[gj] + lj

    def block_shape(self, gi: int, gj: int) -> tuple[int, int]:
        return self.row_sizes[gi], self.col_sizes[gj]


def _starts(sizes: list[int]) -> list[int]:
    out = [0]
    for s in sizes:
        out.append(out[-1] + s)
    return out
