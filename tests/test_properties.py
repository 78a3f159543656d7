"""Properties of the expansion and the order on random shapes.

The exhaustive symmetry checks in test_lr.py stop at 7 or 8 cells; these
draw shapes of 9 to 14 cells and cross the two expansion paths (tableau
counting for ribbons, the LR search for everything else), and count the
standard fillings their coefficients must add up to.  Pairs of 7 to 10 cells
test the necessary conditions and the antisymmetry of the order; its
transitivity is checked on every shape of at most 6 cells.  Draws are
derandomized, so runs repeat.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from schurpos import (
    Relation,
    SkewDiagram,
    compare_diagrams,
    compare_vectors,
    composition_of,
    enumerate_basic_skew,
    expand,
    is_ribbon,
    necessary_filter,
    omega_vec,
    ribbon_of,
    rotate180,
    transpose,
)
from schurpos.cli import _shape_text, main, parse_shape
from schurpos.lr import _lr_expansion, _ribbon_expansion
from schurpos.partitions import partitions_of

from lr_reference import count_standard_fillings, standard_tableaux

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


def uncached(d):
    """The expansion from the engine expand picks for d, without its cache,
    which answers a rotation or a transpose from the shape's own entry."""
    if is_ribbon(d):
        return _ribbon_expansion(composition_of(d))
    return _lr_expansion(d.outer, d.inner)


@PROPERTY
@given(basic_skew_shapes())
def test_rotation_leaves_the_expansion_unchanged(d):
    assert 9 <= d.size <= 14
    assert uncached(rotate180(d)) == uncached(d)


@PROPERTY
@given(basic_skew_shapes())
def test_transpose_conjugates_the_expansion(d):
    assert uncached(transpose(d)) == omega_vec(uncached(d))


@PROPERTY
@given(compositions())
def test_ribbon_reversal_leaves_the_expansion_unchanged(alpha):
    assert _ribbon_expansion(alpha) == _ribbon_expansion(tuple(reversed(alpha)))


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


def test_hook_length_formula_counts_standard_fillings():
    for n in range(1, 11):
        for lam in partitions_of(n):
            assert standard_tableaux(lam) == count_standard_fillings(lam), lam


@PROPERTY
@given(st.one_of(basic_skew_shapes(), compositions().map(ribbon_of)))
def test_coefficients_weighted_by_f_lambda_count_standard_fillings(d):
    # s_{lam/mu} = sum c_lam s_lam, read off at the coefficient of x_1 ... x_n.
    total = sum(c * standard_tableaux(lam) for lam, c in expand(d).items())
    assert total == count_standard_fillings(d.outer, d.inner)


def test_compare_diagrams_is_transitive_on_small_shapes():
    for n in range(1, 7):
        shapes = enumerate_basic_skew(n)
        # Bit j of at_most[i]: shapes[j] sits at or below shapes[i].
        at_most = [
            sum(
                1 << j
                for j, b in enumerate(shapes)
                if compare_diagrams(a, b).relation in (Relation.GREATER, Relation.EQUAL)
            )
            for a in shapes
        ]
        for i, below in enumerate(at_most):
            for j in range(len(shapes)):
                if below >> j & 1:
                    assert at_most[j] & ~below == 0, (shapes[i], shapes[j])


@PROPERTY
@given(st.one_of(basic_skew_shapes(), compositions().map(ribbon_of)))
def test_shape_text_parses_back(d):
    assert parse_shape(_shape_text(d)) == d


# --- fuzzed command lines ------------------------------------------------------
# Every integer token is at most 6, and every verify sweep carries a
# --max-size token, so each run takes milliseconds.  Tokens are mostly well
# formed, so that runs get past the parser.

NUMBERS = st.sampled_from([*"123456" * 4, "0", "-1", "", "x", "1.5", "06"])
INT_LISTS = st.lists(NUMBERS, min_size=1, max_size=3).map(",".join)
SHAPE_TEXTS = st.one_of(
    INT_LISTS,
    st.builds("{}/{}".format, INT_LISTS, INT_LISTS),
    INT_LISTS.map("r:{}".format),
    st.builds("[{}]@{}".format, INT_LISTS, INT_LISTS),
    st.sampled_from(["", " ", "[", "[1,2]", "[1,2]@", "r:", "/", "3,,2", "2/3", "abc"]),
)
LABEL_TEXTS = st.one_of(
    st.builds("[{},{}]".format, NUMBERS, NUMBERS),
    st.builds("{},{}".format, NUMBERS, NUMBERS),
    SHAPE_TEXTS,
)
FLAG_VALUES = {
    "--n": NUMBERS,
    "--rows": NUMBERS,
    "--max-size": NUMBERS,
    "--format": st.sampled_from(["json", "dot", "xml"]),
    "--label-style": st.sampled_from(["comp", "rect", ""]),
}
SWITCHES = ["--ribbons", "--mf", "--show-difference"]
MF_LABELS = {"list": 0, "covers": 0, "leq": 2, "meet": 2, "join": 2, "schubert": 1}
# The flags each command knows, drawn more often than the others.
OWN_FLAGS = {
    "expand": ["--max-size"],
    "compare": ["--show-difference", "--max-size"],
    "poset": ["--ribbons", "--rows", "--mf", "--format", "--label-style", "--max-size"],
    "mf": ["--max-size"],
    "verify": ["--n", "--rows"],
}


@st.composite
def command_lines(draw):
    """An argv for schurpos: a command, its positionals, and a mix of flags."""
    command = draw(st.sampled_from([*OWN_FLAGS] * 3 + ["nope"]))
    argv = [command]
    flags = []
    if command == "expand":
        argv.append(draw(SHAPE_TEXTS))
    elif command == "compare":
        argv += [draw(SHAPE_TEXTS), draw(SHAPE_TEXTS)]
    elif command == "poset":
        flags = ["--n"]
    elif command == "mf":
        action, wanted = draw(st.sampled_from([*MF_LABELS.items()]))
        count = draw(st.sampled_from([wanted] * 3 + [0, 1, 2]))
        argv += [action] + [draw(LABEL_TEXTS) for _ in range(count)]
        flags = ["--n", "--rows"]
    elif command == "verify":
        argv.append(draw(st.sampled_from(
            ["fourcovers", "onlycovers", "bigdiff", "convexity", "trim", "mflemma"]
        )))
        flags = ["--max-size", "--n", "--rows"]
    mix = OWN_FLAGS.get(command, []) * 3 + [*FLAG_VALUES, *SWITCHES]
    flags += draw(st.lists(st.sampled_from(mix), max_size=4))
    for flag in flags:
        argv.append(flag)
        if flag in FLAG_VALUES:
            argv.append(draw(FLAG_VALUES[flag]))
    return argv


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(command_lines())
def test_cli_exits_with_a_code_and_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
    assert code in (0, 1, 2, 3), (code, err.getvalue())
