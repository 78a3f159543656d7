"""Properties of the expansion and the order on random shapes.

The exhaustive symmetry checks in test_lr.py stop at 7 or 8 cells; these
draw shapes of 9 to 14 cells and cross the two expansion paths (tableau
counting for ribbons, the LR search for everything else).  Pairs of 7 to 10
cells test the necessary conditions and the antisymmetry of the order.
Draws are derandomized, so runs repeat.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from schurpos import (
    Relation,
    SkewDiagram,
    compare_diagrams,
    compare_vectors,
    expand,
    necessary_filter,
    omega_vec,
    ribbon_of,
    rotate180,
    transpose,
)
from schurpos.cli import _shape_text, parse_shape
from schurpos.lr import _lr_expansion, _ribbon_expansion

SIZES = st.integers(min_value=9, max_value=14)
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def compositions(draw, sizes=SIZES):
    """A composition of a drawn size: each gap between two cells is a cut or not."""
    n = draw(sizes)
    parts = [1]
    for cut in draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)):
        if cut:
            parts.append(1)
        else:
            parts[-1] += 1
    return tuple(parts)


def _shape_with_rows(draw, lengths):
    """A basic skew shape whose rows, bottom to top, have the given lengths.

    Each row is a column interval [s, e]; going up, s and e weakly increase,
    s is at most the previous e + 1 (no empty column), and the bottom row
    starts at column 1, as in enumerate_basic_skew.
    """
    s, e = 1, lengths[0]
    spans = [(s, e)]
    for length in lengths[1:]:
        s = draw(st.integers(min_value=max(s, e - length + 1), max_value=e + 1))
        e = s + length - 1
        spans.append((s, e))
    spans.reverse()
    return SkewDiagram([e for _, e in spans], [s - 1 for s, _ in spans])


@st.composite
def basic_skew_shapes(draw):
    """A basic skew shape with drawn row lengths."""
    return _shape_with_rows(draw, draw(compositions()))


@st.composite
def shape_pairs(draw):
    """Two basic shapes of 7 to 10 cells each, of one size.

    Half the draws share the row lengths, which makes comparable and equal
    pairs common.
    """
    sizes = st.just(draw(st.integers(min_value=7, max_value=10)))
    first = draw(compositions(sizes))
    second = first if draw(st.booleans()) else draw(compositions(sizes))
    return _shape_with_rows(draw, first), _shape_with_rows(draw, second)


@PROPERTY
@given(basic_skew_shapes())
def test_rotation_leaves_the_expansion_unchanged(d):
    assert 9 <= d.size <= 14
    assert expand(rotate180(d)) == expand(d)


@PROPERTY
@given(basic_skew_shapes())
def test_transpose_conjugates_the_expansion(d):
    assert expand(transpose(d)) == omega_vec(expand(d))


@PROPERTY
@given(compositions())
def test_ribbon_reversal_leaves_the_expansion_unchanged(alpha):
    assert expand(ribbon_of(alpha)) == expand(ribbon_of(tuple(reversed(alpha))))


@PROPERTY
@given(compositions())
def test_ribbon_path_matches_the_lr_search(alpha):
    d = ribbon_of(alpha)
    assert _ribbon_expansion(alpha) == _lr_expansion(d.outer, d.inner)


@PROPERTY
@given(shape_pairs())
def test_necessary_filter_is_sound(pair):
    # McNamara, Necessary conditions for Schur-positivity (2008): when
    # s_a - s_b is Schur positive, the filter must let the pair through.
    a, b = pair
    relation = compare_vectors(expand(a), expand(b)).relation
    if relation in (Relation.GREATER, Relation.EQUAL):
        assert necessary_filter(a, b)
    if relation in (Relation.LESS, Relation.EQUAL):
        assert necessary_filter(b, a)


@PROPERTY
@given(shape_pairs())
def test_compare_diagrams_is_antisymmetric(pair):
    a, b = pair
    forward, backward = compare_diagrams(a, b), compare_diagrams(b, a)
    assert (forward.relation is Relation.LESS) == (backward.relation is Relation.GREATER)
    assert (forward.relation is Relation.GREATER) == (backward.relation is Relation.LESS)
    assert forward.difference == backward.difference


@PROPERTY
@given(st.one_of(basic_skew_shapes(), compositions().map(ribbon_of)))
def test_shape_text_parses_back(d):
    assert parse_shape(_shape_text(d)) == d
