"""End-to-end acceptance checks, one test and one printed line per criterion.

Run verbosely, this file reads as a ten-line scorecard.  The file ends with
frozen regression fixtures pinning the three showcase data sets (the
four-cell shape poset, the nine-cell four-row ribbon poset, and the
26-element lattice at twelve cells and six rows) once the criteria pass.
"""

import time

import schurpos.lr
from schurpos import (
    SchurVector,
    SkewDiagram,
    build_poset,
    check_graded,
    check_join_semilattice,
    convexity_report,
    covers,
    elements,
    enumerate_basic_skew,
    expand,
    join,
    leq_s_closed,
    meet,
    mf_pattern,
    ribbon_of,
    trim_report,
    verify_bigdiff,
    verify_fourcovers,
    verify_mflemma,
    verify_onlycovers,
)
from schurpos.partitions import compositions_of, reverse


def report(number: int, title: str, ok: bool) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {title}")


def timed_expand(diagram: SkewDiagram) -> tuple[SchurVector, float]:
    # Every sample is a cold call, whatever tests ran before it.
    schurpos.lr._expansion.cache_clear()
    start = time.perf_counter()
    vec = expand(diagram)
    return vec, time.perf_counter() - start


def test_criterion_01_worked_expansions_exact_and_fast():
    first, t_first = timed_expand(SkewDiagram((3, 2, 1), (2, 1)))
    second, t_second = timed_expand(SkewDiagram((2, 2), (1,)))
    ok = (
        dict(first.items()) == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}
        and dict(second.items()) == {(2, 1): 1}
        and t_first < 0.001
        and t_second < 0.001
    )
    report(1, f"worked expansions exact ({t_first * 1e6:.0f} us, {t_second * 1e6:.0f} us)", ok)
    assert ok


def test_criterion_02_cover_identities_match_expansions():
    start = time.perf_counter()
    result = verify_fourcovers(12)
    elapsed = time.perf_counter() - start
    ok = result.ok and result.checked == 1015 and elapsed < 60
    report(2, f"all four cover identities, {result.checked} instances in {elapsed:.1f}s", ok)
    assert result.disagreements == ()
    assert ok


def test_criterion_03_non_cover_refutations_never_dominate():
    start = time.perf_counter()
    result = verify_onlycovers(12)
    elapsed = time.perf_counter() - start
    ok = result.ok and result.checked == 4748 and elapsed < 120
    report(3, f"all refutation sweeps, {result.checked} instances in {elapsed:.1f}s", ok)
    assert result.disagreements == ()
    assert ok


def test_criterion_04_closed_order_equals_expansion_order():
    start = time.perf_counter()
    pairs = 0
    failures = []
    for n in range(3, 13):
        for rows in range(2, n):
            result = verify_bigdiff(n, rows)
            pairs += result.checked
            failures.extend(result.disagreements)
    elapsed = time.perf_counter() - start
    ok = not failures and pairs == 8719 and elapsed < 300
    report(4, f"closed order vs expansions, {pairs} ordered pairs in {elapsed:.1f}s", ok)
    assert failures == []
    assert ok


def test_criterion_05_meet_and_join_equal_brute_force_bounds():
    bad = []
    pairs = 0
    for n in range(3, 13):
        for rows in range(2, n):
            labels = elements(n, rows)
            for x in labels:
                for y in labels:
                    pairs += 1
                    lower = [z for z in labels if leq_s_closed(z, x) and leq_s_closed(z, y)]
                    glb = [z for z in lower if all(leq_s_closed(w, z) for w in lower)]
                    upper = [z for z in labels if leq_s_closed(x, z) and leq_s_closed(y, z)]
                    lub = [z for z in upper if all(leq_s_closed(z, w) for w in upper)]
                    if glb != [meet(x, y)] or lub != [join(x, y)]:
                        bad.append((n, rows, x, y))
    ok = not bad
    report(5, f"meet/join vs brute-force bounds on {pairs} pairs", ok)
    assert bad == []


def test_criterion_06_small_poset_flags_and_build_time():
    start = time.perf_counter()
    p4 = build_poset(enumerate_basic_skew(4))
    p5 = build_poset(enumerate_basic_skew(5))
    p6 = build_poset(enumerate_basic_skew(6))
    elapsed = time.perf_counter() - start
    ok = (
        check_graded(p4)
        and not check_graded(p5)
        and check_join_semilattice(p5)
        and not check_join_semilattice(p6)
        and elapsed < 600
    )
    report(6, f"gradedness/join flags at sizes 4-6, built in {elapsed:.1f}s", ok)
    assert ok


def test_criterion_07_pattern_test_matches_expansions():
    result = verify_mflemma(10)
    ok = result.ok and result.checked == 1023
    report(7, f"multiplicity-free pattern vs expansions, {result.checked} ribbons", ok)
    assert result.disagreements == ()
    assert ok


def test_criterion_08_convex_subposets():
    checked = 0
    failures = []
    for n in range(1, 7):
        result = convexity_report(n)
        checked += result.checked
        failures.extend(result.disagreements)
    ok = not failures
    report(8, f"convexity of row-count/mf/fiber subposets, {checked} audits", ok)
    assert failures == []


def test_criterion_09_trim_statistics():
    featured = trim_report(12, 6)
    anchor_ok = (
        featured.join_irreducibles == 9
        and featured.meet_irreducibles == 9
        and featured.longest_chain_elements == 10
        and featured.left_modular_max_chain
        and featured.spine_left_modular
        and featured.spine_distributive
    )

    sweep_ok = True
    for n in range(3, 13):
        for rows in range(2, n):
            result = trim_report(n, rows)
            m = result.join_irreducibles
            # Trim throughout: m join- and meet-irreducibles and a maximum
            # chain of m+1 left-modular elements.
            sweep_ok &= result.meet_irreducibles == m
            sweep_ok &= result.longest_chain_elements == m + 1
            sweep_ok &= result.left_modular_max_chain
            if rows in (2, n - 1) and n >= 5:
                # The two degenerate columns collapse to chains of floor(n/2)
                # elements, so their irreducible count falls below n-3.
                sweep_ok &= m == n // 2 - 1
            else:
                sweep_ok &= m == n - 3

    ok = anchor_ok and sweep_ok
    report(9, "trim statistics: n-3 irreducibles off the degenerate columns", ok)
    assert anchor_ok
    assert ok


def test_criterion_10_equal_ribbons_are_reversal_pairs_when_mf():
    ok = True
    for n in range(2, 11):
        for rows in range(1, n + 1):
            groups: dict[SchurVector, list[tuple[int, ...]]] = {}
            for alpha in compositions_of(n, rows):
                if mf_pattern(alpha) is not None:
                    groups.setdefault(expand(ribbon_of(alpha)), []).append(alpha)
            for members in groups.values():
                ok &= set(members) == {members[0], reverse(members[0])}

    big = expand(ribbon_of((1, 1, 1, 1, 7, 1)))
    ok &= big == expand(ribbon_of((1, 7, 1, 1, 1, 1)))
    report(10, "multiplicity-free classes are reversal pairs through size 10", ok)
    assert ok


# --- regression fixtures pinning the showcase posets ------------------------


def test_fixture_sixteen_class_poset():
    model = build_poset(enumerate_basic_skew(4))
    assert (len(model), len(model.hasse)) == (16, 23)


def test_fixture_nine_cell_four_row_ribbon_poset():
    model = build_poset([ribbon_of(c) for c in compositions_of(9, 4)])
    assert (len(model), len(model.hasse)) == (28, 44)


def test_fixture_featured_lattice():
    assert len(elements(12, 6)) == 26
    assert len(covers(12, 6)) == 41
    # The label grid's corner element names the unique bottom class.
    bottom = [
        x for x in elements(12, 6)
        if all(leq_s_closed(x, y) for y in elements(12, 6))
    ]
    assert [str(x) for x in bottom] == ["[5,6]"]
