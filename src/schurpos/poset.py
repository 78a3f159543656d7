"""Schur-positivity order on skew diagrams and finite poset models of it."""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations

from .diagrams import (
    DEFAULT_ENUMERATION_LIMIT,
    SkewDiagram,
    _statistics,
    enumerate_basic_skew,
    is_ribbon,
    profile,
)
from .errors import DomainError
from .lr import (
    DEFAULT_EXPANSION_LIMIT,
    ComparisonResult,
    Relation,
    SchurVector,
    _check_size,
    compare_vectors,
    expand,
    is_multiplicity_free_vec,
)
from .partitions import Partition, _dominated, partitions_of


def necessary_filter(a: SkewDiagram, b: SkewDiagram) -> bool:
    """Cheap necessary conditions for s_a - s_b to be Schur positive.

    If the difference is Schur positive then a's row and column profiles are
    dominated by b's, and a contains no more m-by-n cell rectangles than b
    for any m, n.  A False return therefore refutes positivity; True decides
    nothing.
    """
    if a.size != b.size:
        raise DomainError("necessary_filter requires diagrams of equal size")
    rows_a, cols_a, table_a = _statistics(a.outer, a.inner)
    rows_b, cols_b, table_b = _statistics(b.outer, b.inner)
    if not _dominated(rows_a, rows_b) or not _dominated(cols_a, cols_b):
        return False
    return all(count <= table_b.get(key, 0) for key, count in table_a.items())


def compare_diagrams(
    a: SkewDiagram, b: SkewDiagram, max_size: int = DEFAULT_EXPANSION_LIMIT
) -> ComparisonResult:
    """Compare the skew Schur functions of two diagrams.

    Either diagram above max_size cells is an error, raised before any other
    work.  Inexpensive refutations run next: diagrams of different sizes are
    incomparable, and so are pairs the necessary conditions refute both ways.
    Those include all ribbons with different row counts: a dominated profile
    has at least as many parts, and a ribbon of n cells has n + 1 rows and
    columns together.  Otherwise the answer comes from the full expansions.
    """
    size_a, size_b = a.size, b.size
    _check_size(size_a, max_size)
    _check_size(size_b, max_size)
    if size_a != size_b:
        return ComparisonResult(Relation.INCOMPARABLE)
    if a == b:
        return ComparisonResult(Relation.EQUAL, SchurVector())
    a_over_b = necessary_filter(a, b)
    b_over_a = necessary_filter(b, a)
    if not a_over_b and not b_over_a:
        return ComparisonResult(Relation.INCOMPARABLE)
    result = compare_vectors(expand(a, max_size), expand(b, max_size))
    rel = result.relation
    if (rel in (Relation.GREATER, Relation.EQUAL) and not a_over_b) or (
        rel in (Relation.LESS, Relation.EQUAL) and not b_over_a
    ):
        raise RuntimeError(
            f"necessary_filter refuted {a!r} vs {b!r}, which compare as {rel.value}"
        )
    return result


# --- finite orders ---------------------------------------------------------
# Elements are 0..n-1 and a set of elements is an int bitmask.


def _bits(mask: int) -> Iterator[int]:
    """Elements of a bitmask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _up_sets(levels: Sequence[Mapping[Hashable, int]]) -> list[int]:
    """Up-set bitmask of each element of a threshold order.

    Element i is given by the (key, level) pairs of its .items(), so a dict
    or a SchurVector serves as it is.  Bit j of up[i] is set exactly when j
    has every key of i at a level at least i's; an element that lacks a key
    lies below every level of that key.  One mask per (key, level) that
    occurs collects the elements at that level; ORing each key's masks from
    the top level down makes them hold the elements at that level or above,
    and an up-set is the AND of the masks of its element's own levels.  The
    levels are read again in each pass rather than kept, to spare memory.
    """
    at_least: dict[Hashable, dict[int, int]] = {}
    for j, element in enumerate(levels):
        bit = 1 << j
        for key, level in element.items():
            masks = at_least.setdefault(key, {})
            masks[level] = masks.get(level, 0) | bit
    for masks in at_least.values():
        acc = 0
        for level in sorted(masks, reverse=True):
            acc = masks[level] = acc | masks[level]
    up = []
    everything = (1 << len(levels)) - 1
    for element in levels:
        mask = everything
        for key, level in element.items():
            mask &= at_least[key][level]
        up.append(mask)
    return up


def _covers(levels: Sequence[Mapping[Hashable, int]]) -> list[tuple[int, int]]:
    """Cover pairs (lower, upper), in increasing order, of the threshold order
    that _up_sets reads off the same levels.

    The elements are indexed in a linear extension read top down, by falling
    sum of their levels, and their up-sets built in that index order, so an
    up-set mask holds no bit above its own element's.  The highest element
    left of a strict up-set then has nothing below it there, so it is a
    cover; taking away its up-set leaves the elements above none of the
    covers found so far.  That is one step per cover instead of one per
    element above.  The level sum grows strictly up the order when the
    levels are positive, as expansion coefficients are, or when all elements
    have the same keys, as the two chain ranks of a label do.
    """
    order = sorted(
        range(len(levels)),
        key=lambda i: sum(level for _, level in levels[i].items()),
        reverse=True,
    )
    up = _up_sets([levels[i] for i in order])
    pairs = []
    for p, above in enumerate(up):
        rest = above ^ (1 << p)
        while rest:
            q = rest.bit_length() - 1
            pairs.append((order[p], order[q]))
            rest &= ~up[q]
    pairs.sort()
    return pairs


def _cover_lists(size: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Successor lists of the elements 0..size-1 under the given pairs."""
    succ: list[list[int]] = [[] for _ in range(size)]
    for lo, hi in pairs:
        succ[lo].append(hi)
    return succ


def _extension_order(up: Sequence[int]) -> list[int]:
    """A linear extension: elements sorted by the size of their up-set,
    largest first, since an element strictly above another has fewer above
    it."""
    return sorted(range(len(up)), key=lambda i: -up[i].bit_count())


def _heights(order: Iterable[int], succ: Sequence[Sequence[int]]) -> list[int]:
    """Covers on a longest chain ending at each element, where `order` lists
    the elements considered in a linear extension and chains stay among them.

    With the reversed extension and predecessor lists this gives the covers on
    a longest chain starting at each element.  Elements left out stay at 0.
    """
    height = [0] * len(succ)
    for v in order:
        for w in succ[v]:
            if height[w] <= height[v]:
                height[w] = height[v] + 1
    return height


def _left_modular(
    spine: Iterable[int],
    below: Sequence[tuple[int, int]],
    meet: Sequence[Sequence[int]],
    join: Sequence[Sequence[int]],
) -> set[int]:
    """The elements x of `spine` with (y v x) ^ z == y v (x ^ z) for every
    pair y < z listed in `below`: the left-modular ones."""
    return {
        x for x in spine if all(meet[join[y][x]][z] == join[y][meet[x][z]] for y, z in below)
    }


def _trim_stats(
    levels: Sequence[Mapping[Hashable, int]],
    meet: Sequence[Sequence[int]],
    join: Sequence[Sequence[int]],
) -> tuple[int, int, int, bool, bool, bool]:
    """Trim statistics of a finite lattice given as a threshold order by the
    levels of each element, as _up_sets and _covers read them, and by its
    meet and join tables.

    Returns the numbers of join- and meet-irreducibles and of elements on a
    longest chain; whether some longest chain is all left modular; whether
    every element on a longest chain (the spine) is left modular; and whether
    the spine is a distributive sublattice.
    """
    size = len(levels)
    up = _up_sets(levels)
    pairs = _covers(levels)
    succ = _cover_lists(size, pairs)
    pred = _cover_lists(size, ((hi, lo) for lo, hi in pairs))
    join_irr = sum(1 for v in range(size) if len(pred[v]) == 1)
    meet_irr = sum(1 for v in range(size) if len(succ[v]) == 1)

    order = _extension_order(up)
    height = _heights(order, succ)
    depth = _heights(reversed(order), pred)
    max_len = max(height[v] + depth[v] for v in range(size))
    spine = [v for v in range(size) if height[v] + depth[v] == max_len]

    below = [(y, z) for y, above in enumerate(up) for z in _bits(above) if z != y]
    modular = _left_modular(spine, below, meet, join)
    # A longest chain of left-modular elements exists when some reach the top
    # level, climbing one level per cover through left-modular spine elements.
    reach = {v for v in modular if height[v] == 0}
    for level in range(1, max_len + 1):
        reach = {w for v in reach for w in succ[v] if w in modular and height[w] == level}

    in_spine = set(spine)
    distributive = all(
        meet[x][y] in in_spine and join[x][y] in in_spine for x, y in combinations(spine, 2)
    ) and all(
        meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
        for x in spine
        for y, z in combinations(spine, 2)
    )
    return join_irr, meet_irr, max_len + 1, bool(reach), len(modular) == len(spine), distributive


@dataclass(frozen=True)
class SchurClass:
    """All input diagrams sharing one Schur expansion."""

    members: tuple[SkewDiagram, ...]
    expansion: SchurVector

    @property
    def representative(self) -> SkewDiagram:
        return self.members[0]


@dataclass(frozen=True)
class PosetModel:
    """Schur-positivity order on the expansion classes of a set of diagrams.

    Bit j of up[i] is set exactly when class i sits at or below class j;
    hasse lists the cover pairs (lower, upper) of the transitive reduction.
    """

    classes: tuple[SchurClass, ...]
    up: tuple[int, ...]
    hasse: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.classes)


def build_poset(
    diagrams: Iterable[SkewDiagram], max_size: int = DEFAULT_EXPANSION_LIMIT
) -> PosetModel:
    """Group diagrams by Schur expansion and order the classes.

    Each expansion is computed once, and a diagram shares it with its
    rotation and transpose (see expand); classes are compared
    coefficientwise, all at once, by _up_sets, which the label lattice
    shares: one bitmask per coefficient that occurs, ORed from the top
    coefficient down.  _covers reads the Hasse diagram off masks built in a
    linear extension by coefficient sum.  Class lists and members are sorted
    by shape, so the model is reproducible for a given input set.
    """
    unique = sorted(set(diagrams), key=SkewDiagram.sort_key)
    if len({d.size for d in unique}) > 1:
        raise DomainError("poset construction requires diagrams of equal size")

    by_expansion: dict[SchurVector, list[SkewDiagram]] = {}
    for diagram in unique:
        by_expansion.setdefault(expand(diagram, max_size), []).append(diagram)
    # unique is sorted, so the classes come in the order of their first members.
    classes = tuple(SchurClass(tuple(members), vec) for vec, members in by_expansion.items())

    # All classes have one degree and distinct expansions, so class i sits
    # below j exactly when j's coefficient of each of i's terms is at least i's.
    # The covers come first, so their up-sets (built in another index order)
    # are freed before the model's own are built.
    vectors = [cls.expansion for cls in classes]
    hasse = tuple(_covers(vectors))
    return PosetModel(classes, tuple(_up_sets(vectors)), hasse)


def check_graded(model: PosetModel) -> bool:
    """Whether all maximal chains between any two comparable elements have
    equal length."""
    succ = _cover_lists(len(model), model.hasse)
    order = _extension_order(model.up)
    # All saturated chains from x to each y above it have one length exactly
    # when every cover v < w above x adds one to the longest chain from x.
    for above in model.up:
        members = [v for v in order if above >> v & 1]
        height = _heights(members, succ)
        if any(height[w] != height[v] + 1 for v in members for w in succ[v]):
            return False
    return True


def check_join_semilattice(model: PosetModel) -> bool:
    """Whether every pair with a common upper bound has a least one."""
    up = model.up
    for i, above_i in enumerate(up):
        for above_j in up[i:]:
            uppers = above_i & above_j
            if uppers and not any(up[u] & uppers == uppers for u in _bits(uppers)):
                return False
    return True


def check_convex(model: PosetModel, member: Callable[[SchurClass], bool]) -> bool:
    """Whether the classes satisfying the predicate form a convex subposet:
    no outside class sits strictly between two member classes."""
    up = model.up
    members = above = 0
    for i, cls in enumerate(model.classes):
        if member(cls):
            members |= 1 << i
            above |= up[i]
    return not any(up[b] & members for b in _bits(above & ~members))


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of an exhaustive cross-check: pair count and disagreements."""

    checked: int
    disagreements: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.disagreements


def convexity_report(
    n: int, max_enum: int = DEFAULT_ENUMERATION_LIMIT
) -> VerifyReport:
    """Check convexity of the distinguished families inside the size-n poset.

    Families: ribbon classes with a fixed row count, their multiplicity-free
    parts, and the fibers with a fixed row profile.
    """
    model = build_poset(enumerate_basic_skew(n, max_enum))

    def ribbons(rows: int, mf: bool) -> Callable[[SchurClass], bool]:
        return lambda cls: any(
            is_ribbon(d) and d.num_rows == rows for d in cls.members
        ) and (not mf or is_multiplicity_free_vec(cls.expansion))

    def row_profile(lam: Partition) -> Callable[[SchurClass], bool]:
        return lambda cls: profile(cls.representative)[0] == lam

    audits = [
        (f"{'multiplicity-free ' if mf else ''}ribbons with {rows} rows", ribbons(rows, mf))
        for rows in range(1, n + 1)
        for mf in (False, True)
    ] + [(f"row profile {lam}", row_profile(lam)) for lam in partitions_of(n)]
    bad = [tag for tag, member in audits if not check_convex(model, member)]
    return VerifyReport(len(audits), tuple(bad))
