"""Symmetries of the expansion on random shapes of 9 to 14 cells.

The exhaustive symmetry checks in test_lr.py stop at 7 or 8 cells; these
draw larger shapes and cross the two expansion paths (tableau counting for
ribbons, the LR search for everything else).  Draws are derandomized, so
runs repeat.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from schurpos import SkewDiagram, expand, omega_vec, ribbon_of, rotate180, transpose
from schurpos.lr import _lr_expansion, _ribbon_expansion

SIZES = st.integers(min_value=9, max_value=14)
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def compositions(draw):
    """A composition of 9 to 14: each gap between two cells is a cut or not."""
    n = draw(SIZES)
    parts = [1]
    for cut in draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)):
        if cut:
            parts.append(1)
        else:
            parts[-1] += 1
    return tuple(parts)


@st.composite
def basic_skew_shapes(draw):
    """A basic skew shape with drawn row lengths, built bottom-up.

    Each row is a column interval [s, e]; going up, s and e weakly increase,
    s is at most the previous e + 1 (no empty column), and the bottom row
    starts at column 1, as in enumerate_basic_skew.
    """
    lengths = draw(compositions())
    s, e = 1, lengths[0]
    spans = [(s, e)]
    for length in lengths[1:]:
        s = draw(st.integers(min_value=max(s, e - length + 1), max_value=e + 1))
        e = s + length - 1
        spans.append((s, e))
    spans.reverse()
    return SkewDiagram([e for _, e in spans], [s - 1 for s, _ in spans])


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
