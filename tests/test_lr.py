"""The expansion engines against independent references."""

from itertools import accumulate, combinations
from math import factorial, prod

import pytest

import schurpos.lr
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
from schurpos.lr import _addable_cells, _lr_expansion, _ribbon_expansion
from schurpos.partitions import compositions_of, partitions_of

from lr_reference import schur_expansion, standard_tableaux


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
    # expand answers a rotation from the shape's own cache entry, so the
    # engines are run directly, on both orientations.
    for n in range(1, 8):
        for d in enumerate_basic_skew(n, max_size=8):
            r = rotate180(d)
            assert _lr_expansion(r.outer, r.inner) == _lr_expansion(d.outer, d.inner)


def test_transpose_conjugates_the_expansion():
    for n in range(1, 8):
        for d in enumerate_basic_skew(n, max_size=8):
            assert expand(transpose(d)) == omega_vec(expand(d))


def test_ribbon_reversal_invariance():
    # The reversed ribbon is the rotated one, so this too bypasses the cache.
    for n in range(1, 9):
        for alpha in compositions_of(n):
            assert _ribbon_expansion(alpha) == _ribbon_expansion(tuple(reversed(alpha)))


def test_a_shape_and_its_rotation_share_one_engine_run(monkeypatch):
    runs = []
    for name in ("_lr_expansion", "_ribbon_expansion"):
        engine = getattr(schurpos.lr, name)
        monkeypatch.setattr(
            schurpos.lr, name, lambda *args, engine=engine: runs.append(args) or engine(*args)
        )
    schurpos.lr._expansion.cache_clear()
    try:
        # Not a ribbon, then a ribbon; neither is its own rotation.
        for d in (SkewDiagram((4, 3, 2), (2,)), ribbon_of((1, 2, 3))):
            runs.clear()
            r = rotate180(d)
            assert (r.outer, r.inner) != (d.outer, d.inner)
            assert expand(d) is expand(r) is expand(d)
            assert len(runs) == 1
        assert schurpos.lr._expansion.cache_info().currsize == 4
    finally:
        schurpos.lr._expansion.cache_clear()


def test_expand_size_guard():
    big = SkewDiagram((17,))
    with pytest.raises(DomainError, match="limited to 16 cells"):
        expand(big)
    assert expand(big, max_size=17)[(17,)] == 1
    with pytest.raises(DomainError, match="limited to 3 cells"):
        expand(SkewDiagram((2, 2)), max_size=3)


# --- ribbons: standard tableaux with a fixed descent set -----------------


def permutations_with_descent_set(alpha):
    """beta_n(S) for S the partial sums of alpha, by inclusion-exclusion
    over the multinomials alpha_n(T) of the subsets T of S (EC1 2.2)."""
    n = sum(alpha)
    descents = list(accumulate(alpha[:-1]))
    total = 0
    for size in range(len(descents) + 1):
        for subset in combinations(descents, size):
            cuts = (0, *subset, n)
            multinomial = factorial(n) // prod(
                factorial(b - a) for a, b in zip(cuts, cuts[1:])
            )
            total += (-1) ** (len(descents) - size) * multinomial
    return total


def test_ribbon_expansion_matches_the_lr_search_through_twelve_cells():
    checked = 0
    for n in range(1, 13):
        for alpha in compositions_of(n):
            d = ribbon_of(alpha)
            assert _ribbon_expansion(alpha) == _lr_expansion(d.outer, d.inner), alpha
            checked += 1
    assert checked == 4095


def test_ribbon_coefficients_over_all_compositions_count_standard_tableaux():
    # Each standard tableau has exactly one descent set.
    totals = {}
    for alpha in compositions_of(13):
        for lam, c in _ribbon_expansion(alpha).items():
            totals[lam] = totals.get(lam, 0) + c
    assert totals == {lam: standard_tableaux(lam) for lam in partitions_of(13)}


@pytest.mark.parametrize(
    "alpha",
    [(8, 8), (1, 15), (2, 1) * 5 + (1,), (4, 4, 4, 4)],
    ids=["8,8", "1,15", "(2,1)^5,1", "4,4,4,4"],
)
def test_sixteen_cell_ribbons_count_permutations_with_their_descent_set(alpha):
    vec = _ribbon_expansion(alpha)
    assert vec.degree() == 16
    assert sum(c * standard_tableaux(lam) for lam, c in vec.items()) == (
        permutations_with_descent_set(alpha)
    )


def test_two_row_sixteen_cell_ribbons_follow_the_pieri_rule():
    # r_(a,b) = h_a h_b - h_(a+b).  Unlike the two sums above, this tells a
    # descent set from its complement.
    for a in range(1, 16):
        b = 16 - a
        expected = {(16 - k, k): 1 for k in range(1, min(a, b) + 1)}
        assert dict(_ribbon_expansion((a, b)).items()) == expected


def test_addable_cells_are_the_covers_in_youngs_lattice():
    for k in range(21):
        above = set(partitions_of(k + 1))
        for shape in partitions_of(k):
            cells = _addable_cells(shape)
            # A partition has one addable cell per distinct part, plus one in
            # a new row; each cover adds one cell in the row it names.
            assert len(cells) == len(set(shape)) + 1
            assert [r for r, _ in cells] == sorted({r for r, _ in cells})
            for r, grown in cells:
                child = [*shape, 0]
                child[r] += 1
                assert grown == tuple(p for p in child if p)
                assert grown in above


@pytest.mark.parametrize(
    "alpha",
    [(10, 10), (1, 19), (2, 1) * 6 + (2,), (4, 4, 4, 4, 4)],
    ids=["10,10", "1,19", "(2,1)^6,2", "4,4,4,4,4"],
)
def test_twenty_cell_ribbons_count_permutations_with_their_descent_set(alpha):
    # Above the default guard, through shapes no 16-cell ribbon reaches.
    vec = _ribbon_expansion(alpha)
    assert vec.degree() == 20
    assert sum(c * standard_tableaux(lam) for lam, c in vec.items()) == (
        permutations_with_descent_set(alpha)
    )


def test_two_row_twenty_cell_ribbons_follow_the_pieri_rule():
    for a in range(1, 20):
        b = 20 - a
        expected = {(20 - k, k): 1 for k in range(1, min(a, b) + 1)}
        assert dict(_ribbon_expansion((a, b)).items()) == expected


def test_ribbons_take_the_tableau_path(monkeypatch):
    def no_search(outer, inner):
        raise AssertionError(f"LR search on {outer}/{inner}")

    monkeypatch.setattr(schurpos.lr, "_lr_expansion", no_search)
    schurpos.lr._expansion.cache_clear()
    try:
        assert expand(ribbon_of((2, 2, 2, 2, 2, 2, 2, 2))) == _ribbon_expansion((2,) * 8)
        with pytest.raises(AssertionError, match="LR search"):
            expand(SkewDiagram((2, 2)))
    finally:
        schurpos.lr._expansion.cache_clear()


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
