"""The Littlewood-Richardson engine against an independent reference."""

import pytest

from schurpos import (
    DomainError,
    Relation,
    SchurVector,
    SkewDiagram,
    compare_vectors,
    enumerate_basic_skew,
    expand,
    is_multiplicity_free_vec,
    omega_vec,
    ribbon_of,
    rotate180,
    transpose,
)
from schurpos.partitions import compositions_of, partitions_of

from lr_reference import schur_expansion


# --- SchurVector ---------------------------------------------------------


def test_vector_normalizes_keys_and_drops_zeros():
    vec = SchurVector({(3, 2, 0): 1, (4, 1): 2, (5,): 0})
    assert vec.items() == (((4, 1), 2), ((3, 2), 1))
    assert vec[(3, 2)] == 1
    assert vec[(2, 2, 1)] == 0
    assert (4, 1) in vec
    assert len(vec) == 2
    assert vec.degree() == 5


def test_vector_accumulates_duplicate_keys():
    assert SchurVector({(2, 1, 0): 1})[(2, 1)] == 1


def test_vector_rejects_negative_coefficients():
    with pytest.raises(DomainError, match="negative"):
        SchurVector({(2, 1): -1})


def test_vector_rejects_mixed_degrees():
    with pytest.raises(DomainError, match="mixed degrees"):
        SchurVector({(2,): 1, (3,): 1})


def test_vector_equality_and_hash_ignore_input_order():
    a = SchurVector({(3,): 1, (2, 1): 2})
    b = SchurVector({(2, 1): 2, (3,): 1})
    assert a == b
    assert hash(a) == hash(b)
    assert a != SchurVector({(3,): 1, (2, 1): 3})


def test_empty_vector():
    vec = SchurVector({})
    assert not vec
    assert vec.degree() is None
    assert vec.items() == ()


def test_vector_support_is_sorted_descending():
    vec = SchurVector({(1, 1, 1): 1, (3,): 1, (2, 1): 5})
    assert vec.support() == ((3,), (2, 1), (1, 1, 1))


def test_multiplicity_free_vec():
    assert is_multiplicity_free_vec(SchurVector({(2, 1): 1, (3,): 1}))
    assert not is_multiplicity_free_vec(SchurVector({(2, 1): 2}))
    assert is_multiplicity_free_vec(SchurVector({}))


# --- lattice words -------------------------------------------------------


# --- expansion -----------------------------------------------------------


def test_worked_examples():
    assert dict(expand(SkewDiagram((3, 2, 1), (2, 1))).items()) == {
        (3,): 1,
        (2, 1): 2,
        (1, 1, 1): 1,
    }
    assert dict(expand(SkewDiagram((2, 2), (1,))).items()) == {(2, 1): 1}
    assert dict(expand(ribbon_of((2, 1, 3))).items()) == {(4, 1, 1): 1, (3, 2, 1): 1}


def test_repeated_expansions_share_one_vector():
    shape = SkewDiagram((4, 3, 1), (2,))
    assert expand(shape) is expand(SkewDiagram((4, 3, 1), (2,)))
    assert expand(SkewDiagram(())) is expand(SkewDiagram(()))


def test_expansion_of_empty_and_straight_shapes():
    assert dict(expand(SkewDiagram(())).items()) == {(): 1}
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert dict(expand(SkewDiagram(lam)).items()) == {lam: 1}


def test_expansion_matches_reference_on_all_small_shapes():
    for n in range(1, 7):
        for d in enumerate_basic_skew(n):
            outer, inner = d.sort_key()
            assert dict(expand(d).items()) == schur_expansion(outer, inner), d.notation()


def test_expansion_degree_and_positivity():
    for d in enumerate_basic_skew(5):
        vec = expand(d)
        assert vec.degree() == 5
        assert all(c > 0 for _, c in vec.items())


def test_rotation_invariance():
    for n in range(1, 8):
        for d in enumerate_basic_skew(n, max_size=8):
            assert expand(rotate180(d)) == expand(d)


def test_transpose_conjugates_the_expansion():
    for n in range(1, 8):
        for d in enumerate_basic_skew(n, max_size=8):
            assert expand(transpose(d)) == omega_vec(expand(d))


def test_ribbon_reversal_invariance():
    for n in range(1, 9):
        for alpha in compositions_of(n):
            assert expand(ribbon_of(alpha)) == expand(ribbon_of(tuple(reversed(alpha))))


def test_expand_size_guard():
    big = SkewDiagram((17,))
    with pytest.raises(DomainError, match="limited to 16 cells"):
        expand(big)
    assert expand(big, max_size=17)[(17,)] == 1
    with pytest.raises(DomainError, match="limited to 3 cells"):
        expand(SkewDiagram((2, 2)), max_size=3)


# --- comparison ----------------------------------------------------------


def test_compare_equal():
    result = compare_vectors(SchurVector({(2, 1): 1}), SchurVector({(2, 1): 1}))
    assert result.relation is Relation.EQUAL
    assert result.difference == SchurVector({})


def test_compare_greater_and_less_carry_the_positive_difference():
    big = SchurVector({(3,): 1, (2, 1): 2, (1, 1, 1): 1})
    small = SchurVector({(2, 1): 1})
    expected = SchurVector({(3,): 1, (2, 1): 1, (1, 1, 1): 1})

    result = compare_vectors(big, small)
    assert result.relation is Relation.GREATER
    assert result.difference == expected

    result = compare_vectors(small, big)
    assert result.relation is Relation.LESS
    assert result.difference == expected


def test_compare_incomparable_mixed_signs():
    result = compare_vectors(SchurVector({(3,): 1}), SchurVector({(2, 1): 1}))
    assert result.relation is Relation.INCOMPARABLE
    assert result.difference is None


def test_compare_degree_mismatch_is_incomparable():
    result = compare_vectors(SchurVector({(3,): 1}), SchurVector({(2,): 1}))
    assert result.relation is Relation.INCOMPARABLE
    assert result.difference is None


def test_omega_vec_is_an_involution():
    vec = expand(SkewDiagram((3, 2, 1), (2, 1)))
    assert omega_vec(omega_vec(vec)) == vec
    assert omega_vec(SchurVector({(3, 1): 2}))[(2, 1, 1)] == 2
