"""Skew diagrams, ribbons, and the multiplicity-free shape test."""

import pytest

from schurpos import (
    DomainError,
    MfPattern,
    SkewDiagram,
    composition_of,
    enumerate_basic_skew,
    is_connected,
    is_ribbon,
    mf_pattern,
    profile,
    rectangle_count,
    ribbon_of,
    rotate180,
    transpose,
)
from schurpos.diagrams import _ribbon_profile, _statistics
from schurpos.partitions import compositions_of, reverse

from lr_reference import (
    basic_skew_cell_sets,
    is_connected_by_flood_fill,
    normalized_cells,
    partitions_in_box,
    rectangle_table_by_cell_walk,
    subpartitions,
)


def test_construction_normalizes_to_basic_form():
    # An empty column inside the shape is deleted and the rest reindexed.
    assert SkewDiagram((3, 3, 1), (2, 2)).notation() == "2,2,1/1,1"
    # Empty rows are deleted too, even when the remainder is disconnected.
    assert SkewDiagram((4, 2, 1, 1), (4, 1, 1)).notation() == "2,1/1"
    # Already-basic shapes are untouched.
    assert SkewDiagram((4, 3, 3), (2, 2)).notation() == "4,3,3/2,2"
    assert SkewDiagram((3, 2)).notation() == "3,2"


def test_construction_deletes_exactly_the_empty_rows_and_columns():
    for lam in partitions_in_box(5, 5):
        for mu in subpartitions(lam):
            cells = {(r - 1, c - 1) for r, c in SkewDiagram(lam, mu).cells()}
            assert cells == normalized_cells(lam, mu), (lam, mu)


def test_construction_rejects_bad_pairs():
    with pytest.raises(DomainError, match="weakly decrease"):
        SkewDiagram((2, 3))
    with pytest.raises(DomainError, match="not contained"):
        SkewDiagram((3, 2), (3, 3))


def test_cells_and_dimensions():
    d = SkewDiagram((4, 3, 3), (2, 2))
    assert d.size == 6
    assert d.num_rows == 3
    assert d.num_cols == 4
    assert d.cells() == ((1, 3), (1, 4), (2, 3), (3, 1), (3, 2), (3, 3))
    assert d.row_lengths() == (2, 1, 3)
    assert d.column_lengths() == (1, 1, 3, 1)


def test_empty_diagram():
    d = SkewDiagram((), ())
    assert d.size == 0
    assert d.cells() == ()
    assert profile(d) == ((), ())


def test_equality_is_by_basic_form():
    assert SkewDiagram((4, 2, 1, 1), (4, 1, 1)) == SkewDiagram((2, 1), (1,))
    assert len({SkewDiagram((2, 1), (1,)), SkewDiagram((4, 2, 1, 1), (4, 1, 1))}) == 1


def test_profile_sorts_row_and_column_lengths():
    assert profile(SkewDiagram((4, 3, 3), (2, 2))) == ((3, 2, 1), (3, 1, 1, 1))


def test_profile_builds_no_rectangle_table():
    # Only necessary_filter and rectangle_count read the cached tables.
    _statistics.cache_clear()
    for n in range(1, 7):
        for d in enumerate_basic_skew(n):
            profile(d)
    assert _statistics.cache_info().currsize == 0


def test_profile_matches_the_cached_statistics():
    shapes = [d for n in range(1, 9) for d in enumerate_basic_skew(n)]
    assert len(shapes) == 3909
    for d in shapes:
        assert profile(d) == _statistics(d.outer, d.inner)[:2], d.notation()


def test_ribbon_of_known_shape():
    assert ribbon_of((2, 1, 3)) == SkewDiagram((4, 3, 3), (2, 2))
    assert ribbon_of((5,)) == SkewDiagram((5,))
    assert ribbon_of((1, 1, 1)) == SkewDiagram((1, 1, 1))
    with pytest.raises(DomainError):
        ribbon_of(())


def test_ribbon_roundtrip_through_composition():
    for n in range(1, 8):
        for alpha in compositions_of(n):
            d = ribbon_of(alpha)
            assert is_ribbon(d)
            assert is_connected(d)
            assert d.size == n
            assert d.num_rows == len(alpha)
            assert composition_of(d) == alpha


def test_closed_form_ribbon_profiles():
    # Rows from alpha; columns read off alpha in one pass, where j - 1
    # consecutive interior 1s make a column of j + 1 cells.
    assert _ribbon_profile((2, 1, 3), 0) == (3, 2, 1)
    assert _ribbon_profile((2, 1, 3), 1) == (3, 1, 1, 1)
    assert _ribbon_profile((3, 1, 1, 2), 1) == (4, 1, 1, 1)
    assert _ribbon_profile((1, 1, 1), 1) == (3,)
    assert _ribbon_profile((4,), 1) == (1, 1, 1, 1)
    for n in range(1, 15):
        for alpha in compositions_of(n):
            expected = profile(ribbon_of(alpha))
            assert (_ribbon_profile(alpha, 0), _ribbon_profile(alpha, 1)) == expected, alpha


def test_is_ribbon_rejects_thick_and_disconnected_shapes():
    assert not is_ribbon(SkewDiagram((2, 2)))
    assert not is_ribbon(SkewDiagram((2, 1), (1,)))  # disconnected
    assert is_ribbon(SkewDiagram((2, 2), (1,)))


def test_closed_form_ribbon_test_matches_connectivity_and_blocks():
    shapes = [d for n in range(1, 9) for d in enumerate_basic_skew(n)]
    assert len(shapes) == 3909
    ribbons = 0
    for d in shapes:
        expected = is_connected(d) and rectangle_count(d, 2, 2) == 0
        assert is_ribbon(d) == expected, d.notation()
        if expected:
            assert composition_of(d) == d.row_lengths()
            ribbons += 1
        else:
            with pytest.raises(DomainError, match="not a ribbon"):
                composition_of(d)
    assert ribbons == sum(2 ** (n - 1) for n in range(1, 9))
    assert not is_ribbon(SkewDiagram(()))


def test_is_connected():
    assert is_connected(SkewDiagram((2, 2)))
    assert not is_connected(SkewDiagram((2, 1), (1,)))
    assert not is_connected(SkewDiagram((3, 3, 1), (2, 2)))


def test_rotate180_on_ribbons_reverses_the_composition():
    for n in range(1, 8):
        for alpha in compositions_of(n):
            assert rotate180(ribbon_of(alpha)) == ribbon_of(reverse(alpha))


def test_rotate180_is_an_involution():
    for d in enumerate_basic_skew(5):
        assert rotate180(rotate180(d)) == d


def test_transpose():
    assert transpose(SkewDiagram((4, 3, 3), (2, 2))) == SkewDiagram((3, 3, 3, 1), (2, 2))
    assert transpose(SkewDiagram((3, 2))) == SkewDiagram((2, 2, 1))
    for d in enumerate_basic_skew(5):
        assert transpose(transpose(d)) == d
        assert transpose(d).size == d.size


def test_transpose_swaps_profile_components():
    for d in enumerate_basic_skew(5):
        rows, cols = profile(d)
        assert profile(transpose(d)) == (cols, rows)


def test_rectangle_count_hand_values():
    square = SkewDiagram((2, 2))
    assert rectangle_count(square, 1, 1) == 4
    assert rectangle_count(square, 1, 2) == 2
    assert rectangle_count(square, 2, 1) == 2
    assert rectangle_count(square, 2, 2) == 1
    assert rectangle_count(square, 3, 1) == 0

    staircase = ribbon_of((2, 1, 3))
    assert rectangle_count(staircase, 1, 1) == 6
    assert rectangle_count(staircase, 1, 2) == 3
    assert rectangle_count(staircase, 2, 1) == 2
    assert rectangle_count(staircase, 2, 2) == 0


def test_cached_rectangle_table_is_read_only():
    square = SkewDiagram((2, 2))
    _, _, table = _statistics(square.outer, square.inner)
    with pytest.raises(TypeError):
        table[1, 1] = 0
    assert rectangle_count(square, 1, 1) == 4


def test_rectangle_count_brute_force():
    # The closed forms for connectivity and rectangle counts, against a flood
    # fill, a cell walk and the definition on every basic shape of at most 8
    # cells.
    def slow(cells, m, n):
        return sum(
            all((i + di, j + dj) in cells for di in range(m) for dj in range(n))
            for i, j in cells
        )

    shapes = [d for n in range(1, 9) for d in enumerate_basic_skew(n)]
    assert len(shapes) == 3909
    for d in shapes:
        cells = set(d.cells())
        assert is_connected(d) == is_connected_by_flood_fill(cells), d.notation()
        table = rectangle_table_by_cell_walk(cells)
        assert dict(_statistics(d.outer, d.inner)[2]) == table, d.notation()
        for m in range(1, 4):
            for n in range(1, 4):
                assert rectangle_count(d, m, n) == slow(cells, m, n)
    assert not is_connected(SkewDiagram())


def test_unchecked_builders_match_the_public_constructor():
    # ribbon_of, rotate180, transpose and enumerate_basic_skew build their
    # results without validation; each must equal what the constructor makes
    # of the same tuples, so no trailing zero or unreduced shape slips in.
    built = [ribbon_of(alpha) for n in range(1, 11) for alpha in compositions_of(n)]
    for d in (d for n in range(1, 9) for d in enumerate_basic_skew(n)):
        built += [d, rotate180(d), transpose(d)]
    built.append(rotate180(SkewDiagram()))
    for d in built:
        assert d == SkewDiagram(d.outer, d.inner), d


def test_rectangle_count_rejects_non_positive_dimensions():
    with pytest.raises(DomainError, match="positive"):
        rectangle_count(SkewDiagram((1,)), 0, 1)


def test_mf_pattern_known_shapes():
    assert mf_pattern((2, 1, 3)) == MfPattern(m=2, k=1, n=3, l=0, reversed=False)
    assert mf_pattern((3, 1, 2)) == MfPattern(m=3, k=1, n=2, l=0, reversed=False)
    assert mf_pattern((2, 2, 1)) == MfPattern(m=2, k=0, n=2, l=1, reversed=False)
    assert mf_pattern((4,)) == MfPattern(m=0, k=0, n=4, l=0, reversed=False)
    assert mf_pattern((1, 1, 1)) == MfPattern(m=1, k=0, n=1, l=1, reversed=False)
    assert mf_pattern((3, 1, 1, 2, 1)) == MfPattern(m=3, k=2, n=2, l=1, reversed=False)
    assert mf_pattern((1, 2, 3)) == MfPattern(m=3, k=0, n=2, l=1, reversed=True)
    assert mf_pattern((1, 2, 1, 3, 2)) is None
    assert mf_pattern((2, 3, 2)) is None


def test_mf_pattern_reconstructs_its_composition():
    for n in range(1, 10):
        for alpha in compositions_of(n):
            pattern = mf_pattern(alpha)
            if pattern is not None:
                assert pattern.composition() == alpha
                assert pattern.n >= 1
                assert pattern.m >= 0


def test_mf_pattern_is_reversal_symmetric():
    for n in range(1, 9):
        for alpha in compositions_of(n):
            assert (mf_pattern(alpha) is None) == (mf_pattern(reverse(alpha)) is None)


def test_enumerate_basic_skew_counts():
    expected = [1, 3, 9, 28, 87, 272, 850]
    for n, count in enumerate(expected, start=1):
        assert len(enumerate_basic_skew(n, max_size=7)) == count


def test_enumerate_basic_skew_matches_brute_force():
    for n in range(1, 6):
        produced = {
            frozenset((r - 1, c - 1) for r, c in d.cells())
            for d in enumerate_basic_skew(n)
        }
        assert produced == basic_skew_cell_sets(n)


def test_enumerate_basic_skew_yields_unique_basic_shapes():
    shapes = enumerate_basic_skew(6)
    assert len(set(shapes)) == len(shapes)
    for d in shapes:
        assert d.size == 6
        assert min(d.row_lengths()) >= 1
        assert min(d.column_lengths()) >= 1


def test_enumerate_basic_skew_respects_guard():
    with pytest.raises(DomainError, match="must be in 1..8"):
        enumerate_basic_skew(9)
    assert enumerate_basic_skew(9, max_size=9)[0].size == 9
