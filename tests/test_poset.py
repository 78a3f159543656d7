"""The Schur-positivity order on skew shapes and its finite posets."""

import os
import random
import subprocess
import sys
from itertools import combinations

import pytest
from order_reference import (
    bitset_covers,
    covers,
    is_convex,
    is_graded,
    is_join_semilattice,
    least,
    left_modular_set,
    trim_flags,
)

import schurpos
from schurpos import (
    DomainError,
    Relation,
    build_poset,
    check_convex,
    check_graded,
    check_join_semilattice,
    compare_diagrams,
    compare_vectors,
    convexity_report,
    enumerate_basic_skew,
    expand,
    is_multiplicity_free_vec,
    mf_pattern,
    necessary_filter,
    profile,
    ribbon_of,
)
from schurpos.partitions import compositions_of, dominance_leq, partitions_of, reverse
from schurpos.poset import _covers, _left_modular, _trim_stats, _up_sets


def leq_of(model):
    """The order of a poset model as a bool matrix, for the references."""
    return [[bool(above >> j & 1) for j in range(len(model))] for above in model.up]


def up_of(leq):
    """Up-set bitmasks of a reflexive order given as a bool matrix."""
    return [sum(1 << j for j, below in enumerate(row) if below) for row in leq]


def levels_of(leq):
    """Levels whose threshold order (_up_sets, _covers) is the order given as
    a bool matrix: element i holds each element at or below it at level 1."""
    return [{k: 1 for k in range(len(leq)) if leq[k][i]} for i in range(len(leq))]


# --- the necessary filter ------------------------------------------------


def test_necessary_filter_requires_equal_size():
    with pytest.raises(DomainError, match="equal size"):
        necessary_filter(ribbon_of((2,)), ribbon_of((2, 1)))


def compare_vectors_of(a, b):
    from schurpos import compare_vectors

    return compare_vectors(expand(a), expand(b)).relation


def test_necessary_filter_never_rejects_a_true_inequality():
    # Anything the full expansion proves comparable must pass the filter.
    diagrams = enumerate_basic_skew(5)
    for a in diagrams:
        for b in diagrams:
            result = compare_vectors_of(a, b)
            if result in (Relation.GREATER, Relation.EQUAL):
                assert necessary_filter(a, b)


def test_necessary_filter_catches_profile_violations():
    # r(3,2) >= r(4,1) holds, so the filter must allow it; the reverse
    # direction fails on row-profile dominance.
    assert necessary_filter(ribbon_of((3, 2)), ribbon_of((4, 1)))
    assert not necessary_filter(ribbon_of((4, 1)), ribbon_of((3, 2)))


def test_necessary_filter_catches_rectangle_violations():
    # Same profiles, different 2x2 rectangle counts: the square holds one,
    # the ribbon holds none, so the square cannot dominate the ribbon.
    from schurpos import SkewDiagram, rectangle_count

    square = SkewDiagram((2, 2))
    zigzag = ribbon_of((2, 2))
    assert rectangle_count(square, 2, 2) == 1
    assert rectangle_count(zigzag, 2, 2) == 0
    assert not necessary_filter(square, zigzag)


# --- pairwise comparison -------------------------------------------------


def test_compare_diagrams_equal_on_reversed_ribbons():
    for alpha in [(2, 1, 3), (1, 4), (2, 2, 1)]:
        result = compare_diagrams(ribbon_of(alpha), ribbon_of(reverse(alpha)))
        assert result.relation is Relation.EQUAL


def test_compare_diagrams_known_strict_pair():
    from schurpos import SchurVector, SkewDiagram

    result = compare_diagrams(SkewDiagram((3, 2, 1), (2, 1)), SkewDiagram((2, 2), (1,)))
    assert result.relation is Relation.GREATER
    assert result.difference == SchurVector({(3,): 1, (2, 1): 1, (1, 1, 1): 1})


def test_unsound_filter_raises_even_under_python_O():
    # The soundness checks must not be asserts, which -O strips.
    script = """
import schurpos.lattice as lattice
import schurpos.poset as poset
from schurpos import SkewDiagram, elements

sound = poset.necessary_filter
poset.necessary_filter = lambda a, b: not sound(a, b)
try:
    poset.compare_diagrams(SkewDiagram((3, 2, 1), (2, 1)), SkewDiagram((2, 2), (1,)))
except RuntimeError as exc:
    print("compare:", exc)

labels = iter(elements(8, 4))
lattice.canonical_label = lambda *args: next(labels)
try:
    lattice.label_of_ribbon((1, 2))
except RuntimeError as exc:
    print("label:", exc)
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(schurpos.__file__)))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 2, result.stdout
    assert lines[0].startswith("compare: necessary_filter refuted")
    assert lines[1].startswith("label: label candidates disagree for (1, 2)")


def test_compare_diagrams_size_mismatch():
    result = compare_diagrams(ribbon_of((2,)), ribbon_of((2, 1)))
    assert result.relation is Relation.INCOMPARABLE


def test_ribbons_with_different_row_counts_are_incomparable():
    # Comparable ribbons always have the same number of rows.  The necessary
    # conditions alone refute such pairs both ways (a passing pair needs at
    # least as many rows and as many columns on the left, and a ribbon of n
    # cells has n + 1 rows and columns together), so compare_diagrams needs
    # no row-count test of its own.
    result = compare_diagrams(ribbon_of((2, 2)), ribbon_of((1, 2, 1)))
    assert result.relation is Relation.INCOMPARABLE
    for n in range(2, 9):
        ribbons = [ribbon_of(alpha) for alpha in compositions_of(n)]
        for a, b in combinations(ribbons, 2):
            if a.num_rows != b.num_rows:
                assert not necessary_filter(a, b) and not necessary_filter(b, a)
                assert compare_diagrams(a, b).relation is Relation.INCOMPARABLE


def test_dominance_characterizes_sorted_ribbon_comparisons():
    # For ribbons whose row profiles are partitions, the order is exactly
    # reverse dominance of those profiles.
    for n in range(2, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if len(lam) != len(mu):
                    continue
                result = compare_diagrams(ribbon_of(mu), ribbon_of(lam))
                expected = dominance_leq(lam, mu)
                got = result.relation in (Relation.LESS, Relation.EQUAL)
                assert got == expected, (lam, mu, result.relation)


# --- poset construction --------------------------------------------------


def test_build_poset_requires_equal_sizes():
    with pytest.raises(DomainError, match="equal size"):
        build_poset([ribbon_of((2,)), ribbon_of((2, 1))])


def known_poset(n):
    return build_poset(enumerate_basic_skew(n))


def test_small_poset_shapes():
    p4 = known_poset(4)
    assert len(p4) == 16
    assert len(p4.hasse) == 23

    p5 = known_poset(5)
    assert len(p5) == 34
    assert len(p5.hasse) == 56


def test_poset_classes_partition_the_input():
    model = known_poset(4)
    members = [d for cls in model.classes for d in cls.members]
    assert len(members) == len(set(members)) == 28
    for cls in model.classes:
        assert all(expand(d) == cls.expansion for d in cls.members)
        assert cls.representative == cls.members[0]


def test_poset_leq_is_reflexive_antisymmetric_transitive():
    model = known_poset(4)
    leq = leq_of(model)
    k = len(model)
    for i in range(k):
        assert leq[i][i]
        for j in range(k):
            if i != j and leq[i][j]:
                assert not leq[j][i]
            for t in range(k):
                if leq[i][j] and leq[j][t]:
                    assert leq[i][t]


def test_hasse_is_the_transitive_reduction():
    for n in (4, 5, 6):
        model = known_poset(n)
        leq = leq_of(model)
        k = len(model)
        strict = {(i, j) for i in range(k) for j in range(k) if i != j and leq[i][j]}
        expected = {
            (i, j)
            for i, j in strict
            if not any((i, t) in strict and (t, j) in strict for t in range(k))
        }
        assert list(model.hasse) == sorted(expected)


def pairwise_leq(model):
    """The order of the classes from one compare_vectors call per pair."""
    k = len(model)
    leq = [[i == j for j in range(k)] for i in range(k)]
    for i, j in combinations(range(k), 2):
        rel = compare_vectors(model.classes[i].expansion, model.classes[j].expansion).relation
        if rel is Relation.LESS:
            leq[i][j] = True
        elif rel is Relation.GREATER:
            leq[j][i] = True
    return leq


def test_bitset_order_equals_the_pairwise_order():
    models = [known_poset(n) for n in (4, 5, 6)]
    models.append(build_poset(ribbon_of(c) for c in compositions_of(9)))
    for model in models:
        leq = pairwise_leq(model)
        assert leq_of(model) == leq
        assert list(model.hasse) == sorted(covers(leq))
    # Coefficients above one are where support-only comparison goes wrong.
    expansions = [cls.expansion for model in models for cls in model.classes]
    assert max(c for vec in expansions for _, c in vec.items()) >= 2


def test_up_sets_of_a_hand_built_family():
    levels = [
        {"x": -2, "y": 1},
        {"x": -2, "y": 3},  # tied with element 0 on x
        {"x": 0},  # lacks y, so lies below every level of it
        {"y": 1},  # lacks x
        {},  # lacks both, so lies below all but itself
        {"x": -5, "y": 1},
    ]
    expected = [{0, 1}, {1}, {2}, {0, 1, 3, 5}, {0, 1, 2, 3, 4, 5}, {0, 1, 5}]
    assert _up_sets(levels) == [sum(1 << j for j in above) for above in expected]
    assert _up_sets([]) == []


def random_order(rng, size):
    """A random reflexive order on 0..size-1 as a bool matrix: the transitive
    closure of random pairs taken along a shuffled ranking, so that index
    order is seldom a linear extension."""
    rank = rng.sample(range(size), size)
    density = rng.random()
    leq = [
        [i == j or (rank[i] < rank[j] and rng.random() < density) for j in range(size)]
        for i in range(size)
    ]
    for k in range(size):
        for i in range(size):
            if leq[i][k]:
                for j in range(size):
                    leq[i][j] = leq[i][j] or leq[k][j]
    return leq


def test_covers_match_the_bitset_reference_on_random_orders():
    rng = random.Random(2007)
    for _ in range(300):
        leq = random_order(rng, rng.randint(0, 24))
        levels = levels_of(leq)
        assert _up_sets(levels) == up_of(leq)
        assert _covers(levels) == bitset_covers(up_of(leq)) == sorted(covers(leq))


@pytest.mark.parametrize(
    "diagrams",
    [
        lambda: enumerate_basic_skew(7),
        lambda: [ribbon_of(alpha) for alpha in compositions_of(12)],
    ],
    ids=["P_7", "ribbons-12"],
)
def test_covers_match_the_bitset_reference_on_class_posets(diagrams):
    model = build_poset(diagrams(), max_size=12)
    vectors = [cls.expansion for cls in model.classes]
    assert _up_sets(vectors) == list(model.up)
    assert list(model.hasse) == _covers(vectors) == bitset_covers(model.up)


def test_gradedness_flips_between_sizes_four_and_five():
    assert check_graded(known_poset(4))
    assert not check_graded(known_poset(5))


def test_join_semilattice_flips_between_sizes_five_and_six():
    assert check_join_semilattice(known_poset(5))
    assert not check_join_semilattice(known_poset(6))


def test_graded_and_join_checks_match_brute_force():
    # All skew shapes of 4..6 cells, and the ribbons of 8 cells by row count.
    models = [known_poset(n) for n in (4, 5, 6)] + [
        build_poset([ribbon_of(c) for c in compositions_of(8) if len(c) == rows])
        for rows in (2, 3, 4, 5)
    ]
    seen = set()
    for model in models:
        graded = is_graded(leq_of(model))
        join = is_join_semilattice(leq_of(model))
        assert check_graded(model) == graded
        assert check_join_semilattice(model) == join
        seen.add((graded, join))
    assert {g for g, _ in seen} == {j for _, j in seen} == {True, False}


def test_check_convex_rejects_gaps():
    # A comparable pair is convex exactly when it is a cover (or one class).
    model = known_poset(4)
    leq = leq_of(model)
    k = len(model)
    verdicts = set()
    for i in range(k):
        for j in range(k):
            if not leq[i][j]:
                continue
            expected = is_convex(leq, {i, j})
            assert expected == (i == j or (i, j) in model.hasse)
            members = {model.classes[i], model.classes[j]}
            assert check_convex(model, members.__contains__) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def lattice_tables(edges):
    """Order, meet and join tables of the lattice whose covers are `edges`,
    with bounds found by order_reference.least."""
    size = 1 + max(hi for _, hi in edges)
    leq = [[i == j for j in range(size)] for i in range(size)]
    for lo, hi in edges:
        leq[lo][hi] = True
    for k in range(size):
        for i in range(size):
            for j in range(size):
                leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    geq = [list(col) for col in zip(*leq)]
    everything = range(size)
    join = [
        [least(leq, [k for k in everything if leq[x][k] and leq[y][k]]) for y in everything]
        for x in everything
    ]
    meet = [
        [least(geq, [k for k in everything if leq[k][x] and leq[k][y]]) for y in everything]
        for x in everything
    ]
    assert covers(leq) == set(edges)
    return leq, meet, join


# Cover pairs of three small lattices.
SMALL_LATTICES = {
    # The hexagon: two chains of three covers, nothing left modular strictly
    # between the bounds.
    "hexagon": [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)],
    # M3: modular, and all of it is spine, but it is not distributive.
    "M3": [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
    # Eight elements: one longest chain is left modular, the spine is not.
    "eight": [(0, 1), (0, 3), (1, 2), (1, 4), (2, 6), (3, 4), (3, 5), (4, 6), (5, 6), (6, 7)],
}


@pytest.mark.parametrize(
    "name, expected",
    [
        ("hexagon", (4, 4, 4, False, False, False)),
        ("M3", (3, 3, 3, True, True, False)),
        ("eight", (5, 4, 5, True, False, False)),
    ],
    ids=["hexagon", "M3", "eight"],
)
def test_trim_stats_match_brute_force_where_the_flags_fail(name, expected):
    leq, meet, join = lattice_tables(SMALL_LATTICES[name])
    assert trim_flags(leq) == expected
    assert _trim_stats(levels_of(leq), meet, join) == expected


@pytest.mark.parametrize(
    "name, expected",
    [("hexagon", {0, 5}), ("M3", {0, 1, 2, 3, 4}), ("eight", {0, 1, 3, 4, 6, 7})],
    ids=["hexagon", "M3", "eight"],
)
def test_left_modular_elements_match_brute_force(name, expected):
    leq, meet, join = lattice_tables(SMALL_LATTICES[name])
    size = len(leq)
    below = [(y, z) for y in range(size) for z in range(size) if y != z and leq[y][z]]
    assert left_modular_set(leq) == expected
    assert _left_modular(list(range(size)), below, meet, join) == expected


def test_ribbon_poset_with_fixed_rows():
    diagrams = [ribbon_of(c) for c in compositions_of(9) if len(c) == 4]
    assert len(diagrams) == 56
    model = build_poset(diagrams)
    assert len(model) == 28
    assert len(model.hasse) == 44


# --- equivalence classes of equal ribbons --------------------------------


def ribbon_classes(n):
    groups = {}
    for alpha in compositions_of(n):
        groups.setdefault(expand(ribbon_of(alpha)), []).append(alpha)
    return sorted(sorted(g) for g in groups.values())


def test_equal_ribbons_come_in_reversal_pairs_up_to_eight():
    for n in range(2, 9):
        for group in ribbon_classes(n):
            expected = {group[0], reverse(group[0])}
            assert set(group) == expected, (n, group)


def test_the_one_larger_class_of_size_nine():
    # At nine cells a single class merges two reversal pairs; every other
    # class is still a reversal pair.
    exceptional = [(1, 2, 1, 3, 2), (1, 3, 2, 1, 2), (2, 1, 2, 3, 1), (2, 3, 1, 2, 1)]
    larger = [g for g in ribbon_classes(9) if len(set(g)) > 2]
    assert larger == [exceptional]
    for alpha in exceptional:
        assert mf_pattern(alpha) is None


def test_equal_multiplicity_free_ribbons_are_reversal_pairs():
    for n in range(2, 9):
        for group in ribbon_classes(n):
            if mf_pattern(group[0]) is not None:
                assert set(group) == {group[0], reverse(group[0])}


# --- convexity audits ----------------------------------------------------


def test_convexity_report_small_sizes():
    for n in range(1, 6):
        report = convexity_report(n)
        assert report.ok, report.disagreements
        assert report.checked > 0


def test_convexity_report_checks_rows_mf_and_fibers():
    # At n=4: row counts 1..4, their mf parts, and five row-profile fibers.
    report = convexity_report(4)
    assert report.checked == 13


def test_multiplicity_free_classes_within_fixed_rows_are_convex():
    # Directly: no non-mf class strictly between two mf classes.
    diagrams = [ribbon_of(c) for c in compositions_of(7) if len(c) == 3]
    model = build_poset(diagrams)
    mf = [is_multiplicity_free_vec(cls.expansion) for cls in model.classes]
    leq = leq_of(model)
    k = len(model)
    for i in range(k):
        for j in range(k):
            if mf[i] and mf[j] and leq[i][j]:
                for t in range(k):
                    if leq[i][t] and leq[t][j]:
                        assert mf[t]


def test_profile_fibers_use_row_lengths():
    # Sanity for the fiber audit: profiles group ribbons by sorted rows.
    assert profile(ribbon_of((1, 3, 1)))[0] == (3, 1, 1)
