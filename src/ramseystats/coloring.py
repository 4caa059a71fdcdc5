"""Two-colored complete graphs.

Every unordered vertex pair carries exactly one of two colors. Only the
blue adjacency is stored, one bit-packed integer row per vertex; red is
always the off-diagonal complement, so blue + red + identity equals the
all-ones matrix by construction.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError


class Color(Enum):
    RED = "red"
    BLUE = "blue"


def iter_bits(x: int) -> Iterator[int]:
    """Yield the set-bit positions of a nonnegative int, ascending."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


class _Coloring(NamedTuple):
    n: int
    blue_rows: tuple[int, ...]
    labels: tuple[str, ...] | None = None


class TwoColoring(_Coloring):
    """An n-vertex complete graph with every edge colored red or blue.

    `blue_rows[i]` has bit j set iff edge {i, j} is blue. Rows must be
    symmetric with an empty diagonal; this is checked on construction.
    Instances are immutable tuples of the three fields.
    """

    def __init__(self, n, blue_rows, labels=None):
        if n < 1:
            raise InputError(f"vertex count must be >= 1, got {n}")
        if len(blue_rows) != n:
            raise InputError("blue_rows length must equal vertex count")
        full = (1 << n) - 1
        for i, row in enumerate(blue_rows):
            if row < 0 or row & ~full:
                raise InputError(f"row {i} has bits outside [0, {n})")
            if row >> i & 1:
                raise InputError(f"loop stored at vertex {i}")
            for j in iter_bits(row >> (i + 1)):
                if not blue_rows[i + 1 + j] >> i & 1:
                    raise InputError(f"asymmetric edge ({i}, {i + 1 + j})")
        if labels is not None and len(labels) != n:
            raise InputError("labels length must equal vertex count")

    def __setattr__(self, name, value):  # cached_property sets __dict__ directly
        raise AttributeError(f"TwoColoring is immutable; cannot set {name!r}")

    @cached_property
    def red_rows(self) -> tuple[int, ...]:
        """Off-diagonal complement of the blue rows, computed on demand."""
        full = (1 << self.n) - 1
        return tuple(
            full & ~row & ~(1 << i) for i, row in enumerate(self.blue_rows)
        )

    def rows(self, color: Color) -> tuple[int, ...]:
        if not isinstance(color, Color):
            raise InputError(f"color must be a Color, got {color!r}")
        return self.blue_rows if color is Color.BLUE else self.red_rows

    def has_edge(self, i: int, j: int, color: Color) -> bool:
        self._check_vertex(i)
        self._check_vertex(j)
        return bool(self.rows(color)[i] >> j & 1)

    def degree(self, v: int, color: Color) -> int:
        self._check_vertex(v)
        return self.rows(color)[v].bit_count()

    @property
    def blue_edge_count(self) -> int:
        return sum(r.bit_count() for r in self.blue_rows) // 2

    @property
    def red_edge_count(self) -> int:
        return self.n * (self.n - 1) // 2 - self.blue_edge_count

    def blue_edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted list of blue pairs (i, j) with i < j."""
        out = []
        for i, row in enumerate(self.blue_rows):
            out.extend((i, i + 1 + j) for j in iter_bits(row >> (i + 1)))
        return tuple(out)

    def _check_vertex(self, v: int):
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} out of range [0, {self.n})")


def from_blue_edges(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
) -> TwoColoring:
    """Build a coloring with blue exactly on the given pairs.

    Pairs are symmetrized and deduplicated; every other off-diagonal
    pair is red. Endpoints must lie in [0, n); TwoColoring rejects loops.
    """
    rows = [0] * n
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"edge ({i}, {j}) has endpoint outside [0, {n})")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return TwoColoring(
        n, tuple(rows), tuple(labels) if labels is not None else None
    )


def path_count(
    coloring: TwoColoring, color: Color, k: int, i: int, j: int
) -> int:
    """Number of length-k walks from i to j along edges of one color.

    Equals the (i, j) entry of the k-th power of that color's adjacency
    matrix. Arithmetic is exact (arbitrary-precision integers).
    """
    if k < 1:
        raise InputError(f"path length must be >= 1, got {k}")
    coloring._check_vertex(i)
    coloring._check_vertex(j)
    rows = coloring.rows(color)
    # k matrix-vector products on the indicator of i, then read off j.
    vec = [0] * coloring.n
    vec[i] = 1
    for _ in range(k):
        vec = [sum(vec[s] for s in iter_bits(rows[r])) for r in range(coloring.n)]
    return vec[j]
