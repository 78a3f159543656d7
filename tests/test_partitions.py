"""Partition and composition primitives."""

import pytest

from schurpos import DomainError, SchurVector, SkewDiagram
from schurpos.partitions import (
    as_composition,
    as_partition,
    compositions_of,
    conjugate,
    dominance_leq,
    partitions_of,
    reverse,
)


def test_as_partition_strips_trailing_zeros():
    assert as_partition((3, 2, 0, 0)) == (3, 2)
    assert as_partition(()) == ()
    assert as_partition([5]) == (5,)


def test_as_partition_rejects_bad_input():
    with pytest.raises(DomainError, match="weakly decrease"):
        as_partition((2, 3))
    with pytest.raises(DomainError, match="positive"):
        as_partition((3, -1))


def test_validators_refuse_non_integers_instead_of_truncating():
    # int() would read these as (2, 1), (3, 2), a coefficient of 1 and (2, 1).
    with pytest.raises(DomainError, match="must be integers"):
        SkewDiagram([2.9, 1.5])
    with pytest.raises(DomainError, match="must be integers"):
        as_partition(["3", "2"])
    with pytest.raises(DomainError, match="must be integers"):
        SchurVector({(2,): 1.9})
    with pytest.raises(DomainError, match="must be integers"):
        dominance_leq([2.5, 1], [3])
    with pytest.raises(DomainError, match="must be integers"):
        as_composition([1.0])


def test_as_composition_rejects_non_positive_parts():
    assert as_composition((2, 3, 1)) == (2, 3, 1)
    with pytest.raises(DomainError, match="positive"):
        as_composition((2, 0, 3))


def test_dominance_basics():
    assert dominance_leq((2, 2), (4,))
    assert dominance_leq((1, 1, 1), (2, 1))
    assert not dominance_leq((4,), (2, 2))
    assert dominance_leq((3, 1), (3, 1))
    # (3,3) vs (4,1,1): 3 <= 4 but 6 > 5, so incomparable either way.
    assert not dominance_leq((3, 3), (4, 1, 1))
    assert not dominance_leq((4, 1, 1), (3, 3))


def test_dominance_requires_equal_size():
    with pytest.raises(DomainError, match="equal size"):
        dominance_leq((2,), (2, 1))


def test_dominance_is_a_partial_order():
    parts = list(partitions_of(6))
    for lam in parts:
        assert dominance_leq(lam, lam)
        for mu in parts:
            if dominance_leq(lam, mu) and dominance_leq(mu, lam):
                assert lam == mu
            for nu in parts:
                if dominance_leq(lam, mu) and dominance_leq(mu, nu):
                    assert dominance_leq(lam, nu)


def test_conjugate():
    assert conjugate((4, 3, 3)) == (3, 3, 3, 1)
    assert conjugate((1, 1, 1)) == (3,)
    assert conjugate(()) == ()
    for n in range(8):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_conjugate_reverses_dominance():
    for lam in partitions_of(6):
        for mu in partitions_of(6):
            assert dominance_leq(lam, mu) == dominance_leq(conjugate(mu), conjugate(lam))


def test_reverse_and_sort():
    assert reverse((2, 1, 3)) == (3, 1, 2)


def test_compositions_of_counts():
    # 2^(n-1) compositions of n; C(n-1, k-1) of length k.
    for n in range(1, 9):
        assert len(list(compositions_of(n))) == 2 ** (n - 1)
    assert len(list(compositions_of(6, 3))) == 10
    assert list(compositions_of(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert list(compositions_of(4, 2)) == [(1, 3), (2, 2), (3, 1)]


def test_compositions_are_unique_and_sum_correctly():
    seen = set(compositions_of(7))
    assert len(seen) == 64
    assert all(sum(c) == 7 and all(p > 0 for p in c) for c in seen)


def test_partitions_of_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, count in enumerate(expected):
        assert len(list(partitions_of(n))) == count


def test_partitions_of_order_and_validity():
    parts = list(partitions_of(6))
    assert parts[0] == (6,)
    assert parts[-1] == (1, 1, 1, 1, 1, 1)
    assert parts == sorted(parts, reverse=True)
    assert all(as_partition(p) == p and sum(p) == 6 for p in parts)


def test_partitions_of_rejects_negative():
    with pytest.raises(DomainError):
        list(partitions_of(-1))
