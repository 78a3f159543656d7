"""Skew diagrams in basic form, the ribbon bijection, and shape statistics."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, zip_longest
from types import MappingProxyType

from .errors import DomainError
from .partitions import (
    Composition,
    Partition,
    as_composition,
    as_partition,
    conjugate,
    reverse,
)


def _basic_form(lam: Partition, mu: Partition) -> tuple[Partition, Partition]:
    """Delete the empty rows and columns of lam/mu in one pass, bottom up.

    Without empty rows, the empty columns lie left of a row's start and right
    of the end of the row below (rows above start no further left), so each
    row shifts left by the empty columns at or below it."""
    rows = [(l, m) for l, m in zip_longest(lam, mu, fillvalue=0) if l > m]
    shift = end = 0
    for i in range(len(rows) - 1, -1, -1):
        l, m = rows[i]
        shift += max(0, m - end)
        rows[i], end = (l - shift, m - shift), l
    return tuple(l for l, _ in rows), tuple(m for _, m in rows if m)


class SkewDiagram:
    """A skew shape outer/inner, normalized to basic form (no empty rows or columns)."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Iterable[int] = (), inner: Iterable[int] = ()):
        lam = as_partition(outer)
        mu = as_partition(inner)
        if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
            raise DomainError(f"inner shape {mu} not contained in outer shape {lam}")
        self.outer, self.inner = _basic_form(lam, mu)

    @classmethod
    def _basic(cls, outer: Partition, inner: Partition) -> SkewDiagram:
        """A diagram from outer/inner already in basic form (no zeros in inner), unchecked."""
        diagram = cls.__new__(cls)
        diagram.outer, diagram.inner = outer, inner
        return diagram

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    @property
    def num_rows(self) -> int:
        return len(self.outer)

    @property
    def num_cols(self) -> int:
        return self.outer[0] if self.outer else 0

    def row_lengths(self) -> tuple[int, ...]:
        """Cells per row, top to bottom."""
        mu = self.inner + (0,) * (self.num_rows - len(self.inner))
        return tuple(l - m for l, m in zip(self.outer, mu))

    def column_lengths(self) -> tuple[int, ...]:
        """Cells per column, left to right."""
        # Row i adds one to the columns inner[i] .. outer[i] - 1 (0-indexed).
        diff = [0] * (self.num_cols + 1)
        for l, m in zip_longest(self.outer, self.inner, fillvalue=0):
            diff[m] += 1
            diff[l] -= 1
        return tuple(accumulate(diff[:-1]))

    def cells(self) -> tuple[tuple[int, int], ...]:
        """All (row, column) coordinates, 1-indexed, in row-major order."""
        mu = self.inner + (0,) * (self.num_rows - len(self.inner))
        return tuple(
            (i + 1, j)
            for i, (l, m) in enumerate(zip(self.outer, mu))
            for j in range(m + 1, l + 1)
        )

    def sort_key(self) -> tuple[Partition, Partition]:
        return (self.outer, self.inner)

    def notation(self) -> str:
        """Canonical text form, e.g. '4,3,3/2,2' (inner part omitted when empty)."""
        out = ",".join(map(str, self.outer))
        if self.inner:
            return f"{out}/{','.join(map(str, self.inner))}"
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewDiagram)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self) -> int:
        return hash((self.outer, self.inner))

    def __repr__(self) -> str:
        return f"SkewDiagram({self.outer!r}, {self.inner!r})"


def profile(diagram: SkewDiagram) -> tuple[Partition, Partition]:
    """Row-length and column-length multisets, each sorted into a partition."""
    rows, cols, _ = _statistics(diagram.outer, diagram.inner)
    return rows, cols


def ribbon_of(alpha: Iterable[int]) -> SkewDiagram:
    """The ribbon whose rows, top to bottom, have the lengths of alpha.

    Consecutive rows overlap in exactly one column, so the result is an
    edgewise-connected skew shape containing no 2x2 block.
    """
    alpha = as_composition(alpha)
    if not alpha:
        raise DomainError("a ribbon needs at least one row")
    # Row i ends at column (cells at or below it) - (rows below it) and starts
    # in the last column of the row below; the zeros of inner are at its tail.
    lam = tuple(s - k for k, s in enumerate(accumulate(reversed(alpha))))[::-1]
    return SkewDiagram._basic(lam, tuple(l - 1 for l in lam[1:] if l > 1))


def _ribbon_rows(outer: Partition, inner: Partition) -> Composition | None:
    """Row lengths of the basic shape outer/inner if it is a ribbon, else None.

    In basic form, consecutive rows i and i + 1 share the columns
    inner[i] + 1 .. outer[i + 1], so the shape is connected with no 2x2
    block exactly when each such overlap is a single column.
    """
    if not outer:
        return None
    mu = inner + (0,) * (len(outer) - len(inner))
    if mu[:-1] != tuple(l - 1 for l in outer[1:]):
        return None
    return tuple(l - m for l, m in zip(outer, mu))


def composition_of(diagram: SkewDiagram) -> Composition:
    """Row lengths of a ribbon, top to bottom (inverse of ribbon_of)."""
    rows = _ribbon_rows(diagram.outer, diagram.inner)
    if rows is None:
        raise DomainError(f"{diagram.notation()} is not a ribbon")
    return rows


def rotate180(diagram: SkewDiagram) -> SkewDiagram:
    """The diagram rotated half a turn inside its bounding box."""
    return SkewDiagram._basic(*_rotated(diagram.outer, diagram.inner))


def _rotated(outer: Partition, inner: Partition) -> tuple[Partition, Partition]:
    """The basic shape outer/inner rotated half a turn, again in basic form."""
    c = outer[0] if outer else 0
    mu = inner + (0,) * (len(outer) - len(inner))
    # outer weakly decreases from outer[0] == c, so the zeros are at the tail.
    return tuple(c - m for m in reversed(mu)), tuple(c - l for l in reversed(outer) if l < c)


def transpose(diagram: SkewDiagram) -> SkewDiagram:
    """The diagram reflected across its main diagonal."""
    return SkewDiagram._basic(conjugate(diagram.outer), conjugate(diagram.inner))


def is_connected(diagram: SkewDiagram) -> bool:
    """Whether the cells form one edgewise-connected component: in basic form,
    rows i and i + 1 share a column exactly when inner[i] < outer[i + 1]."""
    outer = diagram.outer
    return bool(outer) and all(m < l for m, l in zip(diagram.inner, outer[1:]))


@lru_cache(maxsize=None)
def _statistics(
    outer: Partition, inner: Partition
) -> tuple[Partition, Partition, Mapping[tuple[int, int], int]]:
    """Row profile, column profile, and a read-only map (m, n) -> number of
    m-by-n cell rectangles (zero counts omitted) of the basic shape outer/inner.

    Rows i .. i + m - 1 share the w columns inner[i] + 1 .. outer[i + m - 1],
    which hold w - n + 1 rectangles with top row i for each n <= w."""
    diagram = SkewDiagram._basic(outer, inner)
    rows = tuple(sorted(diagram.row_lengths(), reverse=True))
    cols = tuple(sorted(diagram.column_lengths(), reverse=True))
    table: dict[tuple[int, int], int] = {}
    for i, left in enumerate(inner + (0,) * (len(outer) - len(inner))):
        for m, right in enumerate(outer[i:], start=1):
            w = right - left
            if w < 1:
                break
            for n in range(1, w + 1):
                table[m, n] = table.get((m, n), 0) + w - n + 1
    return rows, cols, MappingProxyType(table)


def rectangle_count(diagram: SkewDiagram, m: int, n: int) -> int:
    """Number of m-row by n-column rectangles of cells inside the diagram."""
    if m < 1 or n < 1:
        raise DomainError("rectangle dimensions must be positive")
    return _statistics(diagram.outer, diagram.inner)[2].get((m, n), 0)


def is_ribbon(diagram: SkewDiagram) -> bool:
    """Whether the diagram is connected and contains no 2x2 block of cells."""
    return _ribbon_rows(diagram.outer, diagram.inner) is not None


def _ribbon_profile(alpha: Composition) -> tuple[Partition, Partition]:
    """profile(ribbon_of(alpha)) without building the ribbon.

    The rows are the parts of alpha.  The columns are the parts of the
    complement composition, whose partial sums are {1, ..., n - 1} minus
    those of alpha."""
    n = sum(alpha)
    cuts = set(accumulate(alpha))
    ends = [i for i in range(1, n) if i not in cuts] + [n]
    cols = [end - start for start, end in zip([0] + ends, ends)]
    return tuple(sorted(alpha, reverse=True)), tuple(sorted(cols, reverse=True))


@dataclass(frozen=True)
class MfPattern:
    """A row profile written as (m, 1^k, n, 1^l), possibly after reversal.

    m == 0 encodes the one-row ribbon (N), the only case with no such
    two-block form; every longer profile is reported with m >= 1 by
    absorbing leading 1s into the runs.
    """

    m: int
    k: int
    n: int
    l: int
    reversed: bool

    def composition(self) -> Composition:
        body = ((self.m,) if self.m else ()) + (1,) * self.k + (self.n,) + (1,) * self.l
        return tuple(reversed(body)) if self.reversed else body


def mf_pattern(alpha: Iterable[int]) -> MfPattern | None:
    """Decompose alpha (or its reverse) as (m, 1^k, n, 1^l), or return None.

    A ribbon's expansion is multiplicity-free exactly when such a
    decomposition exists.  Ties prefer the unreversed reading, then the
    smallest k.
    """
    alpha = as_composition(alpha)
    if not alpha:
        raise DomainError("mf_pattern needs a non-empty composition")
    if len(alpha) == 1:
        return MfPattern(0, 0, alpha[0], 0, False)
    for rev, beta in ((False, alpha), (True, reverse(alpha))):
        big = [i for i in range(1, len(beta)) if beta[i] > 1]
        if len(big) > 1:
            continue
        q = big[0] if big else 1
        return MfPattern(beta[0], q - 1, beta[q], len(beta) - 1 - q, rev)
    return None


DEFAULT_ENUMERATION_LIMIT = 8


def enumerate_basic_skew(n: int, max_size: int = DEFAULT_ENUMERATION_LIMIT) -> list[SkewDiagram]:
    """All basic skew diagrams with n cells (connected or not), sorted.

    Rows are generated bottom-up as column intervals [s, e] with
    s and e weakly increasing upward, s <= previous e + 1 (no empty
    column), and the bottom row starting at column 1.
    """
    if not 1 <= n <= max_size:
        raise DomainError(f"enumeration size must be in 1..{max_size}, got {n}")
    found: list[SkewDiagram] = []

    def grow(rows: list[tuple[int, int]], used: int) -> None:
        if used == n:
            spans = rows[::-1]
            lam = tuple(e for _, e in spans)
            # Starts weakly decrease downward to column 1: zeros at the tail.
            mu = tuple(s - 1 for s, _ in spans if s > 1)
            found.append(SkewDiagram._basic(lam, mu))
            return
        s_prev, e_prev = rows[-1]
        for s in range(s_prev, e_prev + 2):
            for e in range(max(s, e_prev), s + (n - used)):
                rows.append((s, e))
                grow(rows, used + e - s + 1)
                rows.pop()

    for e in range(1, n + 1):
        grow([(1, e)], e)
    found.sort(key=SkewDiagram.sort_key)
    return found
