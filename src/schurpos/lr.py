"""Schur expansion of skew Schur functions: Littlewood-Richardson fillings, and
standard tableaux with a fixed descent set for ribbons."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate

from .diagrams import SkewDiagram, _ribbon_rows, _rotated
from .errors import DomainError
from .partitions import Composition, Partition, _integers, as_partition, conjugate

DEFAULT_EXPANSION_LIMIT = 16


class SchurVector:
    """A finitely supported map from partitions to positive integer coefficients.

    Represents a Schur-positive symmetric function.  All index partitions must
    have the same size (a skew Schur function is homogeneous), zero terms are
    dropped, and iteration order is descending lexicographic, so equal vectors
    render identically.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Iterable[int], int] | None = None):
        terms = dict(terms or {})
        clean: dict[Partition, int] = {}
        for key, c in zip(terms, _integers(terms.values(), "coefficients")):
            part = as_partition(key)
            if c < 0:
                raise DomainError(f"coefficient of {part} is negative: {c}")
            if c:
                clean[part] = clean.get(part, 0) + c
        if len({sum(p) for p in clean}) > 1:
            raise DomainError(f"mixed degrees in one expansion: {sorted(clean)}")
        self._terms = dict(sorted(clean.items(), reverse=True))

    def degree(self) -> int | None:
        """Common size of the index partitions, or None for the zero vector."""
        for part in self._terms:
            return sum(part)
        return None

    def items(self) -> tuple[tuple[Partition, int], ...]:
        return tuple(self._terms.items())

    def support(self) -> tuple[Partition, ...]:
        return tuple(self._terms)

    def __getitem__(self, key: Iterable[int]) -> int:
        return self._terms.get(as_partition(key), 0)

    def __contains__(self, key: Iterable[int]) -> bool:
        return as_partition(key) in self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self):
        return iter(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SchurVector) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{p}: {c}" for p, c in self._terms.items())
        return f"SchurVector({{{body}}})"


def _vector(terms: dict[Partition, int]) -> SchurVector:
    """A SchurVector from terms the library built, skipping validation.

    The engines and compare_vectors build their keys as partitions of one
    size and keep only positive counts, so the terms are already valid.
    """
    vec = SchurVector.__new__(SchurVector)
    vec._terms = dict(sorted(terms.items(), reverse=True))
    return vec


class Relation(Enum):
    """Outcome of comparing two Schur expansions."""

    EQUAL = "equal"
    GREATER = "greater"
    LESS = "less"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ComparisonResult:
    """A Relation plus, for strict comparisons, the positive difference."""

    relation: Relation
    difference: SchurVector | None = None


@lru_cache(maxsize=None)
def _expansion(outer: Partition, inner: Partition) -> SchurVector:
    # s_A = s_{A rotated 180 degrees} (Reiner, Shaw and van Willigenburg
    # 2007), so a shape whose rotation sorts lower takes the rotation's
    # entry: both keys then hold one vector.  The rotation is built only on
    # a miss, so a hit costs no more than before.
    rotated = _rotated(outer, inner)
    if rotated < (outer, inner):
        return _expansion(*rotated)
    rows = _ribbon_rows(outer, inner)
    if rows is None:
        return _lr_expansion(outer, inner)
    return _ribbon_expansion(rows)


@lru_cache(maxsize=None)
def _addable_cells(shape: Partition) -> tuple[tuple[int, Partition], ...]:
    """The covers of shape in Young's lattice, as (row of the added cell,
    grown partition), top row first.

    Built for a shape on first use and shared by every ribbon after it.  A
    table of whole levels would list p(k) partitions at level k, most of
    which no ribbon reaches once k passes about 30.
    """
    padded = (*shape, 0)
    return tuple(
        (r, (*shape[:r], padded[r] + 1, *shape[r + 1:]))
        for r in range(len(padded))
        if r == 0 or padded[r] < padded[r - 1]
    )


def _ribbon_expansion(alpha: Composition) -> SchurVector:
    """Expansion of the ribbon with rows alpha, from standard tableaux.

    The coefficient of s_lam is the number of standard tableaux of shape lam
    whose descents (k with k + 1 in a strictly lower row) are exactly the
    partial sums of alpha (Gessel 1984; Stanley, EC2 7.19 and 7.23).  Tableaux
    grow one entry at a time through Young's lattice; a state is a shape with
    the count of its tableaux for each row holding the largest entry.  Each
    step reads the shape's addable cells from the shared table of
    _addable_cells, so it neither scans rows that cannot grow nor builds a
    grown partition again.
    """
    n = sum(alpha)
    if n == 1:
        return _vector({(1,): 1})
    descents = set(accumulate(alpha[:-1]))
    layer: dict[Partition, list[int]] = {(1,): [1]}
    # Entry k + 1 goes to row r: strictly below entry k at a descent, weakly
    # above it otherwise.  With above[r] the count of tableaux whose entry k
    # lies above row r, that is above[r] ways at a descent and
    # above[-1] - above[r] otherwise.  One loop per case, so the case is
    # tested once per step rather than once per cell.
    for k in range(1, n - 1):
        grown: dict[Partition, list[int]] = {}
        if k in descents:
            for shape, counts in layer.items():
                above = [0, *accumulate(counts)]
                for r, new in _addable_cells(shape):
                    ways = above[r]
                    if ways:
                        slot = grown.get(new)
                        if slot is None:
                            slot = grown[new] = [0] * len(new)
                        slot[r] += ways
        else:
            for shape, counts in layer.items():
                above = [0, *accumulate(counts)]
                total = above[-1]
                for r, new in _addable_cells(shape):
                    ways = total - above[r]
                    if ways:
                        slot = grown.get(new)
                        if slot is None:
                            slot = grown[new] = [0] * len(new)
                        slot[r] += ways
        layer = grown
    # The last entry needs only the number of tableaux of each shape.
    descent = n - 1 in descents
    totals: dict[Partition, int] = {}
    for shape, counts in layer.items():
        above = [0, *accumulate(counts)]
        total = above[-1]
        for r, new in _addable_cells(shape):
            ways = above[r] if descent else total - above[r]
            if ways:
                totals[new] = totals.get(new, 0) + ways
    return _vector(totals)


def _lr_expansion(outer: Partition, inner: Partition) -> SchurVector:
    """Expansion by a depth-first search over Littlewood-Richardson fillings."""
    diagram = SkewDiagram._basic(outer, inner)
    cells = diagram.cells()
    n = len(cells)
    if n == 0:
        return _vector({(): 1})

    # Cells in reading-word order: top to bottom, right to left within a row.
    reading = sorted(cells, key=lambda cell: (cell[0], -cell[1]))
    index = {cell: p for p, cell in enumerate(reading)}
    right = [index.get((r, c + 1)) for r, c in reading]
    above = [index.get((r - 1, c)) for r, c in reading]
    # In an LR filling, row i holds entries at most i; checked against an
    # unbounded reference enumerator on small shapes.
    bound = [r for r, _ in reading]

    entries = [0] * n
    counts = [0] * (diagram.num_rows + 2)
    weights: dict[Partition, int] = {}

    def fill(p: int) -> None:
        if p == n:
            parts = []
            v = 1
            while counts[v]:
                parts.append(counts[v])
                v += 1
            w = tuple(parts)
            weights[w] = weights.get(w, 0) + 1
            return
        lo = 1 if above[p] is None else entries[above[p]] + 1
        hi = bound[p] if right[p] is None else min(bound[p], entries[right[p]])
        for v in range(lo, hi + 1):
            # Appending v keeps the reading word lattice iff v's predecessor
            # stays strictly ahead.
            if v > 1 and counts[v - 1] <= counts[v]:
                continue
            entries[p] = v
            counts[v] += 1
            fill(p + 1)
            counts[v] -= 1

    fill(0)
    return _vector(weights)


def expand(diagram: SkewDiagram, max_size: int = DEFAULT_EXPANSION_LIMIT) -> SchurVector:
    """Schur expansion of the skew Schur function of the diagram.

    A ribbon with rows alpha is expanded by counting standard tableaux: the
    coefficient of a partition is the number of standard tableaux of that
    shape whose descent set is the set of partial sums of alpha (Gessel 1984;
    Stanley, EC2 7.19 and 7.23).  Any other shape is expanded by the
    Littlewood-Richardson rule: the coefficient of a partition is the number
    of semistandard fillings of the diagram with lattice reading word (read
    right to left, top to bottom) and that content, generated depth-first in
    reading order and cut as soon as the lattice prefix condition fails.  A
    shape and its 180-degree rotation (which has the same skew Schur
    function) share one cache entry, so the pair is expanded once per process
    and repeats of either return the same vector.
    """
    _check_size(diagram.size, max_size)
    return _expansion(diagram.outer, diagram.inner)


def _check_size(size: int, max_size: int) -> None:
    """Refuse a shape of more than max_size cells before any work on it."""
    if size > max_size:
        raise DomainError(f"expansion limited to {max_size} cells, got {size}")


def omega_vec(vec: SchurVector) -> SchurVector:
    """The omega involution: conjugate every index partition."""
    return SchurVector({conjugate(p): c for p, c in vec.items()})


def is_multiplicity_free_vec(vec: SchurVector) -> bool:
    """Whether every coefficient is 0 or 1."""
    return all(c == 1 for _, c in vec.items())


def compare_vectors(v1: SchurVector, v2: SchurVector) -> ComparisonResult:
    """Classify v1 - v2 as equal, greater, less, or incomparable.

    GREATER/LESS come with the positive difference; vectors of different
    degrees are incomparable outright.
    """
    if v1 == v2:
        return ComparisonResult(Relation.EQUAL, SchurVector())
    if v1.degree() != v2.degree():
        return ComparisonResult(Relation.INCOMPARABLE)
    a, b = v1._terms, v2._terms
    diff = {p: a.get(p, 0) - b.get(p, 0) for p in a.keys() | b.keys()}
    diff = {p: c for p, c in diff.items() if c}
    if all(c > 0 for c in diff.values()):
        return ComparisonResult(Relation.GREATER, _vector(diff))
    if all(c < 0 for c in diff.values()):
        return ComparisonResult(Relation.LESS, _vector({p: -c for p, c in diff.items()}))
    return ComparisonResult(Relation.INCOMPARABLE)
