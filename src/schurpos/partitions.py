"""Integer partitions and compositions: validation, orders, elementary transforms."""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import accumulate

from .errors import DomainError

# Both are stored as tuples of positive integers; a partition's parts
# weakly decrease.  The empty tuple is the empty partition/composition.
Partition = tuple[int, ...]
Composition = tuple[int, ...]


def _integers(values: Iterable[int], what: str) -> tuple[int, ...]:
    """The values as ints; non-integers are refused, not truncated or parsed."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise DomainError(f"{what} must be integers, got {values!r}") from None


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate and normalize to a partition tuple, dropping trailing zeros."""
    t = _integers(parts, "partition parts")
    while t and t[-1] == 0:
        t = t[:-1]
    prev = None
    for p in t:
        if p < 1:
            raise DomainError(f"partition parts must be positive, got {t}")
        if prev is not None and p > prev:
            raise DomainError(f"partition parts must weakly decrease, got {t}")
        prev = p
    return t


def as_composition(parts: Iterable[int]) -> Composition:
    """Validate and normalize to a composition tuple (all parts >= 1)."""
    t = _integers(parts, "composition parts")
    if any(p < 1 for p in t):
        raise DomainError(f"composition parts must be positive, got {t}")
    return t


def dominance_leq(mu: Iterable[int], lam: Iterable[int]) -> bool:
    """Whether mu <= lam in dominance order (prefix sums, equal total size)."""
    mu = as_partition(mu)
    lam = as_partition(lam)
    if sum(mu) != sum(lam):
        raise DomainError("dominance requires equal size")
    return _dominated(mu, lam)


def _dominated(mu: Partition, lam: Partition) -> bool:
    """dominance_leq for partitions of one size, without validation."""
    return all(a <= b for a, b in zip(accumulate(mu), accumulate(lam)))


def conjugate(lam: Iterable[int]) -> Partition:
    """Transpose of a partition: column lengths of its Young diagram."""
    return _conjugate(as_partition(lam))


@lru_cache(maxsize=None)
def _conjugate(lam: Partition) -> Partition:
    """conjugate without the check, for a partition the caller validated.

    Cached, so the transposed shapes and conjugated expansions that
    lr._expansion builds share one tuple per partition instead of a fresh
    one per call.
    """
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def reverse(alpha: Iterable[int]) -> Composition:
    """The composition read back to front."""
    return tuple(reversed(as_composition(alpha)))


def compositions_of(n: int, length: int | None = None) -> Iterator[Composition]:
    """Yield compositions of n (optionally with a fixed number of parts) in lex order."""
    if n < 0:
        raise DomainError("compositions need n >= 0")
    if n == 0:
        if length in (None, 0):
            yield ()
        return
    if length is not None and not 1 <= length <= n:
        return

    def rec(remaining: int, parts: list[int]) -> Iterator[Composition]:
        if length is not None and len(parts) == length:
            if remaining == 0:
                yield tuple(parts)
            return
        if remaining == 0:
            if length is None:
                yield tuple(parts)
            return
        for p in range(1, remaining + 1):
            parts.append(p)
            yield from rec(remaining - p, parts)
            parts.pop()

    yield from rec(n, [])


def partitions_of(n: int) -> Iterator[Partition]:
    """Yield partitions of n in descending lex order."""
    if n < 0:
        raise DomainError("partitions need n >= 0")

    def rec(remaining: int, cap: int, parts: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield tuple(parts)
            return
        for p in range(min(cap, remaining), 0, -1):
            parts.append(p)
            yield from rec(remaining - p, p, parts)
            parts.pop()

    yield from rec(n, n, [])
