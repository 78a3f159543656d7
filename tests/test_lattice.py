"""Closed-form model of the multiplicity-free ribbon poset."""

import dataclasses
import time

import pytest
from order_reference import bitset_covers, left_modular_set, trim_flags
from verify_reference import verify_bigdiff_reference, verify_onlycovers_reference

from schurpos import lattice

from schurpos import (
    DomainError,
    RectLabel,
    Relation,
    SchurVector,
    build_poset,
    canonical_label,
    compare_diagrams,
    covers,
    elements,
    expand,
    fourcovers_delta,
    fourcovers_pair,
    join,
    label_of_ribbon,
    leq_s_closed,
    meet,
    mf_pattern,
    necessary_filter,
    omega_vec,
    onlycovers_pair,
    onlycovers_witness,
    ribbon_of,
    ribbon_of_label,
    schubert_pair,
    transpose,
    trim_report,
    verify_bigdiff,
    verify_fourcovers,
    verify_mflemma,
    verify_onlycovers,
)
from schurpos.lattice import _FAMILIES, _label_levels, _pattern_params, _rank
from schurpos.partitions import compositions_of, reverse
from schurpos.poset import _bits, _covers, _left_modular, _up_sets


# --- labels and their identifications ------------------------------------


def test_element_counts():
    assert len(elements(12, 6)) == 26
    for n in range(3, 16):
        for rows in range(2, n):
            nl = n - rows
            expected = (rows - 2) * (nl - 1) + nl // 2 + (rows - 1) // 2 + 1
            assert len(elements(n, rows)) == expected, (n, rows)


def test_element_context_validation():
    with pytest.raises(DomainError, match="2 <= rows <= n - 1"):
        elements(3, 3)
    with pytest.raises(DomainError, match="2 <= rows <= n - 1"):
        RectLabel(1, 1, 3, 3)
    with pytest.raises(DomainError, match="2 <= rows <= n - 1"):
        covers(2, 2)


def test_non_canonical_labels_are_rejected():
    with pytest.raises(DomainError, match="not a canonical label"):
        RectLabel(2, 1, 5, 2)
    # [5,4] at (12,6) folds to [5,2]; the unfolded spelling is invalid.
    with pytest.raises(DomainError, match="not a canonical label"):
        RectLabel(5, 4, 12, 6)


# [2,2] at (10, 4) is an interior label.  Each case spoils one field; an
# integral float compares like the int it equals, so only a type test refuses it.
@pytest.mark.parametrize(
    "spoil",
    [lambda v: v + 0.5, float, str, lambda v: None],
    ids=["float", "integral-float", "str", "None"],
)
@pytest.mark.parametrize("field", ["a", "b", "n", "rows"])
def test_label_inputs_refuse_non_integers(field, spoil):
    args = {"a": 2, "b": 2, "n": 10, "rows": 4}
    args[field] = spoil(args[field])
    with pytest.raises(DomainError, match="must be integers"):
        RectLabel(**args)
    with pytest.raises(DomainError, match="must be integers"):
        canonical_label(**args)
    if field in ("n", "rows"):
        with pytest.raises(DomainError, match="must be integers"):
            elements(args["n"], args["rows"])


def test_canonical_label_folds_the_boundaries():
    assert canonical_label(5, 4, 12, 6) == RectLabel(5, 2, 12, 6)
    assert canonical_label(5, 2, 12, 6) == RectLabel(5, 2, 12, 6)
    assert canonical_label(4, 6, 12, 6) == RectLabel(1, 6, 12, 6)
    assert canonical_label(1, 6, 12, 6) == RectLabel(1, 6, 12, 6)
    # Degenerate corners name the bottom class.
    assert canonical_label(5, 0, 12, 6) == RectLabel(5, 6, 12, 6)
    assert canonical_label(0, 6, 12, 6) == RectLabel(5, 6, 12, 6)


def test_canonical_forms_over_every_grid():
    # One fold decides canonical_label, RectLabel and elements: over each
    # grid (and one step past it), the folded labels are exactly the
    # elements, folding twice changes nothing, and RectLabel accepts exactly
    # the points that fold to themselves.
    for n in range(3, 17):
        for rows in range(2, n):
            folded = set()
            for a in range(-1, rows + 1):
                for b in range(-1, n - rows + 2):
                    try:
                        label = canonical_label(a, b, n, rows)
                    except DomainError:
                        label = None
                    else:
                        folded.add(label)
                        assert canonical_label(label.a, label.b, n, rows) == label
                    try:
                        RectLabel(a, b, n, rows)
                        constructs = True
                    except DomainError:
                        constructs = False
                    assert constructs == (label is not None and (label.a, label.b) == (a, b)), (
                        n, rows, a, b,
                    )
            assert folded == set(elements(n, rows)), (n, rows)


def test_canonical_label_rejects_out_of_grid_coordinates():
    with pytest.raises(DomainError, match="grid coordinates"):
        canonical_label(5, 10, 12, 6)
    with pytest.raises(DomainError, match="grid coordinates"):
        canonical_label(-1, 3, 12, 6)


def test_label_str():
    assert str(RectLabel(3, 5, 15, 6)) == "[3,5]"
    # Bools are integers, as in partitions; a label stores the ints they equal.
    assert str(RectLabel(True, 1, 5, 3)) == str(canonical_label(True, 1, 5, 3)) == "[1,1]"
    assert [type(v) for v in dataclasses.astuple(RectLabel(2, True, 10, 4))] == [int] * 4


# --- chain ranks ----------------------------------------------------------


def test_chain_orders_match_known_sequences():
    # The two chains of the (12, 6) lattice: a on 1..5 and b on 1..6.
    for top, chain in ((5, [5, 1, 4, 2, 3]), (6, [6, 1, 5, 2, 4, 3])):
        assert sorted(range(1, top + 1), key=lambda x: _rank(x, top)) == chain


def test_chain_ranks_are_injective():
    for top in range(1, 14):
        ranks = [_rank(x, top) for x in range(1, top + 1)]
        assert len(set(ranks)) == len(ranks)


# --- label/ribbon dictionary ----------------------------------------------


def test_ribbon_of_label_formula():
    label = RectLabel(3, 5, 15, 6)
    assert ribbon_of_label(label) == (5, 1, 1, 6, 1, 1)
    assert label_of_ribbon((5, 1, 1, 6, 1, 1)) == label


def test_label_ribbon_roundtrip_everywhere():
    for n in range(3, 13):
        for rows in range(2, n):
            for label in elements(n, rows):
                alpha = ribbon_of_label(label)
                assert sum(alpha) == n
                assert len(alpha) == rows
                assert mf_pattern(alpha) is not None
                assert label_of_ribbon(alpha) == label
                assert label_of_ribbon(reverse(alpha)) == label


def test_every_mf_ribbon_has_a_label():
    # Within a context, labels list one ribbon per class; together with their
    # reversals they exhaust the multiplicity-free compositions.
    for n in range(3, 11):
        for rows in range(2, n):
            labelled = set()
            for label in elements(n, rows):
                alpha = ribbon_of_label(label)
                labelled.add(alpha)
                labelled.add(reverse(alpha))
            mf = {
                alpha
                for alpha in compositions_of(n, rows)
                if mf_pattern(alpha) is not None
            }
            assert labelled == mf


def test_label_of_ribbon_rejections():
    with pytest.raises(DomainError, match="not a multiplicity-free ribbon"):
        label_of_ribbon((1, 2, 1, 3, 2))
    with pytest.raises(DomainError, match="2 <= rows <= size - 1"):
        label_of_ribbon((5,))


# --- the closed-form order -------------------------------------------------


def test_leq_is_rank_componentwise():
    x = RectLabel(5, 3, 12, 6)
    y = RectLabel(1, 4, 12, 6)
    assert not leq_s_closed(x, y)
    assert not leq_s_closed(y, x)
    bottom = RectLabel(5, 6, 12, 6)
    top = RectLabel(3, 3, 12, 6)
    for label in elements(12, 6):
        assert leq_s_closed(bottom, label)
        assert leq_s_closed(label, top)


def test_leq_rejects_mixed_contexts():
    with pytest.raises(DomainError, match="different posets"):
        leq_s_closed(RectLabel(1, 1, 12, 6), RectLabel(1, 1, 12, 5))


def test_closed_order_matches_expansions():
    for n, rows in [(7, 3), (8, 4), (9, 4), (9, 6)]:
        report = verify_bigdiff(n, rows)
        assert report.ok, report.disagreements
        assert report.checked == len(elements(n, rows)) ** 2


def test_closed_order_spot_check_against_expansions():
    ctx = (10, 4)
    labels = elements(*ctx)
    vecs = {label: expand(ribbon_of(ribbon_of_label(label))) for label in labels}
    for x in labels:
        for y in labels:
            result = compare_diagrams(
                ribbon_of(ribbon_of_label(x)), ribbon_of(ribbon_of_label(y))
            )
            expected = result.relation in (Relation.LESS, Relation.EQUAL)
            assert leq_s_closed(x, y) == expected
    assert len(vecs) == len(labels)


@pytest.mark.parametrize("ctx", [(8, 4), (10, 4)])
@pytest.mark.parametrize("wrong", ["arguments swapped", "one pair flipped"])
def test_bigdiff_disagreements_match_the_ordered_reference(monkeypatch, ctx, wrong):
    # A wrong closed form must be reported exactly as one comparison per
    # ordered pair reports it: the relation named in each text is read off
    # build_poset's up-sets, so this is where a misread up-set shows.
    sound = lattice.leq_s_closed
    labels = elements(*ctx)
    flipped = (labels[2], labels[-3])
    if wrong == "arguments swapped":
        monkeypatch.setattr(lattice, "leq_s_closed", lambda x, y: sound(y, x))
    else:
        monkeypatch.setattr(
            lattice, "leq_s_closed", lambda x, y: sound(x, y) != ((x, y) == flipped)
        )
    report = verify_bigdiff(*ctx)
    assert report == verify_bigdiff_reference(*ctx)
    assert report.checked == len(labels) ** 2
    if wrong == "arguments swapped":
        assert len(report.disagreements) > 1
    else:
        [text] = report.disagreements
        assert text.startswith(f"{flipped[0]} <= {flipped[1]}: ")


def _no_labels(n, rows):
    raise AssertionError(f"elements({n}, {rows}) ran before the size guard")


def test_bigdiff_checks_its_guards_before_building_any_label(monkeypatch):
    # The ~n^2/4 labels and their ribbons cost seconds at n = 400 and grow
    # as n^3, so an oversized n is refused before elements runs.  A bad
    # context is still reported first, as elements reported it.
    monkeypatch.setattr(lattice, "elements", _no_labels)
    with pytest.raises(DomainError, match="^expansion limited to 16 cells, got 3000$"):
        verify_bigdiff(3000, 1500)
    with pytest.raises(DomainError, match="^expansion limited to 14 cells, got 15$"):
        verify_bigdiff(15, 7, 14)
    with pytest.raises(DomainError, match="rows <= n - 1, got rows=3000, n=3000"):
        verify_bigdiff(3000, 3000)
    with pytest.raises(DomainError, match="n and rows"):
        verify_bigdiff(3000.5, 1500)


def test_necessary_filter_admits_every_relation_bigdiff_reads():
    # verify_bigdiff reads the order off build_poset, which does not run the
    # soundness check compare_diagrams makes; this makes it on the same pairs.
    pairs = 0
    for n in range(3, 15):
        for rows in range(2, n):
            labels = elements(n, rows)
            model = build_poset(ribbon_of(ribbon_of_label(label)) for label in labels)
            assert len(model) == len(labels)
            for lower, above in zip(model.classes, model.up):
                for j in _bits(above):
                    pairs += 1
                    x, y = lower.representative, model.classes[j].representative
                    assert necessary_filter(y, x), (x, y)
    assert pairs == 9214


def test_bigdiff_sweep_through_size_20():
    # Every context above the CLI default guard too: the closed form agrees
    # with the expansion order on each ordered label pair.
    reports = [verify_bigdiff(n, rows, n) for n in range(3, 21) for rows in range(2, n)]
    assert [r.disagreements for r in reports if not r.ok] == []
    assert sum(r.checked for r in reports) == 234_405


# --- meet and join ----------------------------------------------------------


def test_meet_and_join_known_values():
    ctx = (12, 6)
    bound = meet(RectLabel(5, 3, *ctx), RectLabel(1, 4, *ctx))
    assert bound == RectLabel(5, 2, *ctx)
    with pytest.raises(dataclasses.FrozenInstanceError):
        bound.a = 1
    assert join(RectLabel(1, 2, *ctx), RectLabel(2, 1, *ctx)) == RectLabel(2, 2, *ctx)
    assert meet(RectLabel(1, 2, *ctx), RectLabel(2, 1, *ctx)) == RectLabel(1, 1, *ctx)


def test_meet_and_join_against_brute_force():
    for n in range(4, 11):
        for rows in range(2, n):
            labels = elements(n, rows)
            for x in labels:
                for y in labels:
                    lower = [z for z in labels if leq_s_closed(z, x) and leq_s_closed(z, y)]
                    glb = max(
                        lower,
                        key=lambda z: sum(leq_s_closed(w, z) for w in lower),
                    )
                    assert all(leq_s_closed(w, glb) for w in lower)
                    assert meet(x, y) == glb

                    upper = [z for z in labels if leq_s_closed(x, z) and leq_s_closed(y, z)]
                    lub = max(
                        upper,
                        key=lambda z: sum(leq_s_closed(z, w) for w in upper),
                    )
                    assert all(leq_s_closed(lub, w) for w in upper)
                    assert join(x, y) == lub


def _reference_bound(l1, l2, pick):
    """meet (pick=min) or join (pick=max) as first written: a key= pick of
    each coordinate by chain rank, then a fold through canonical_label."""
    h, w = l1.rows - 1, l1.n - l1.rows
    a = pick(l1.a, l2.a, key=lambda x: _rank(x, h))
    b = pick(l1.b, l2.b, key=lambda x: _rank(x, w))
    return canonical_label(a, b, l1.n, l1.rows)


def test_meet_and_join_match_the_key_pick_reference():
    for n in range(3, 17):
        for rows in range(2, n):
            labels = elements(n, rows)
            for x in labels:
                for y in labels:
                    assert meet(x, y) == _reference_bound(x, y, min), (x, y)
                    assert join(x, y) == _reference_bound(x, y, max), (x, y)


def test_bounds_in_a_huge_context_enumerate_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("elements must not be called")

    monkeypatch.setattr(lattice, "elements", refuse)
    n, rows = 10**6, 5 * 10**5
    x, y = RectLabel(3, 10**5, n, rows), RectLabel(rows - 1, 2 * 10**5, n, rows)
    start = time.perf_counter()
    assert meet(x, y) == RectLabel(rows - 1, 10**5, n, rows)
    assert join(x, y) == RectLabel(3, 2 * 10**5, n, rows)
    assert time.perf_counter() - start < 1.0


def test_meet_join_identities():
    labels = elements(11, 5)
    for x in labels:
        for y in labels:
            assert meet(x, y) == meet(y, x)
            assert join(x, y) == join(y, x)
            assert meet(x, x) == x
            assert join(x, x) == x
            assert meet(x, join(x, y)) == x
            assert join(x, meet(x, y)) == x


# --- covers ------------------------------------------------------------------


def test_covers_match_the_transitive_reduction():
    for n in range(4, 11):
        for rows in range(2, n):
            labels = elements(n, rows)
            strict = {
                (x, y)
                for x in labels
                for y in labels
                if x != y and leq_s_closed(x, y)
            }
            expected = {
                (x, y)
                for x, y in strict
                if not any((x, z) in strict and (z, y) in strict for z in labels)
            }
            order = sorted(expected, key=lambda e: (e[0].a, e[0].b, e[1].a, e[1].b))
            assert covers(n, rows) == order, (n, rows)


def test_label_up_sets_match_the_pairwise_order():
    for n in range(3, 25):
        for rows in range(2, n):
            labels = elements(n, rows)
            pairwise = [
                sum(1 << j for j, y in enumerate(labels) if leq_s_closed(x, y)) for x in labels
            ]
            assert _up_sets(_label_levels(labels)) == pairwise, (n, rows)


def test_label_covers_match_the_bitset_reference():
    # Index order (a, b) is no linear extension of the zigzag chains.
    for n in range(3, 25):
        for rows in range(2, n):
            levels = _label_levels(elements(n, rows))
            assert _covers(levels) == bitset_covers(_up_sets(levels)), (n, rows)


def test_cover_counts_at_the_featured_size():
    assert len(covers(12, 6)) == 41


# --- Schubert labels ---------------------------------------------------------


def test_schubert_pair_known_value():
    first, second = schubert_pair(RectLabel(3, 5, 15, 6))
    assert first == (3, 3, 3, 3, 3)
    assert second == (9, 9, 4, 4, 4)


def test_schubert_pair_shapes():
    for label in elements(12, 6):
        first, second = schubert_pair(label)
        assert first == tuple([label.a] * label.b)
        assert all(p <= 6 for p in second)


# --- the four cover families -------------------------------------------------


def test_fourcovers_worked_examples():
    assert fourcovers_pair(1, 1, 0, 3, 0) == ((2, 2), (1, 3))
    assert fourcovers_delta(1, 1, 0, 3, 0) == SchurVector({(2, 2): 1})

    assert fourcovers_pair(2, 1, 0, 2, 1) == ((1, 2, 1), (2, 1, 1))
    assert fourcovers_delta(2, 1, 0, 2, 1) == SchurVector({(2, 2): 1})

    assert fourcovers_pair(3, 2, 0, 2, 1) == ((2, 2, 1), (2, 1, 2))
    assert fourcovers_delta(3, 2, 0, 2, 1) == SchurVector({(3, 2): 1})


def test_fourcovers_delta_matches_expansions():
    report = verify_fourcovers(10)
    assert report.ok, report.disagreements
    assert report.checked > 0


def test_fourcovers_rejects_broken_hypotheses():
    with pytest.raises(DomainError, match="case 1 requires"):
        fourcovers_pair(1, 3, 0, 3, 0)
    with pytest.raises(DomainError, match="case must be"):
        fourcovers_pair(5, 1, 0, 3, 0)
    with pytest.raises(DomainError, match="m, n >= 1"):
        fourcovers_pair(1, 0, 0, 3, 0)


# Case 3 (resp. 4) at (m, k, n, l) is the omega image of case 1 (resp. 2) at
# these parameters; alternates (m', n') of case 3 or 4 map to (n' - 2, m' - 1).
OMEGA_SOURCES = {
    3: (1, lambda m, k, n, l: (k + 1, n - 2, l + 2, m - 1)),
    4: (2, lambda m, k, n, l: (k + 2, n - 2, l + 1, m - 1)),
}


def test_cover_families_3_and_4_are_the_omega_images_of_1_and_2():
    def transposed(ribbons):
        return [transpose(ribbon_of(alpha)) for alpha in ribbons]

    for case, (source, source_params) in OMEGA_SOURCES.items():
        instances = [p for p in _pattern_params(12) if _FAMILIES[case][0](*p)]
        assert instances
        for m, k, n, l in instances:
            params = source_params(m, k, n, l)
            assert transposed(fourcovers_pair(source, *params)) == [
                ribbon_of(alpha) for alpha in fourcovers_pair(case, m, k, n, l)
            ]
            assert omega_vec(fourcovers_delta(source, *params)) == fourcovers_delta(
                case, m, k, n, l
            )
            for p in range(1, m + n - 1):
                alt, source_alt = (p, m + n - p), (m + n - p - 2, p - 1)
                assert transposed(onlycovers_pair(source, *params, source_alt)) == [
                    ribbon_of(alpha) for alpha in onlycovers_pair(case, m, k, n, l, alt)
                ]


def test_fourcovers_pairs_are_genuine_covers_in_context():
    # Upper and lower ribbons of each family sit at adjacent spots in the
    # closed-form poset whenever both are multiplicity-free.
    upper, lower = fourcovers_pair(2, 2, 1, 3, 1)
    hi = label_of_ribbon(upper)
    lo = label_of_ribbon(lower)
    assert (lo, hi) in covers(sum(upper), len(upper))


# --- the non-cover refutations ------------------------------------------------


def test_onlycovers_worked_pairs():
    x, y = onlycovers_pair(1, 1, 0, 3, 0, alt=(0, 0))
    assert (x, y) == ((2, 2), (1, 3))
    evidence = onlycovers_witness(1, 1, 0, 3, 0, alt=(0, 0))
    assert evidence.kind == "rows-dominance"


def test_onlycovers_evidence_kinds():
    assert onlycovers_witness(2, 1, 0, 2, 1, alt=(1, 0)).kind == "coefficient"
    assert onlycovers_witness(3, 2, 0, 2, 1, alt=(2, 2)).kind == "cols-dominance"
    assert onlycovers_witness(4, 2, 0, 2, 2, alt=(2, 2)).kind == "coefficient"


def test_onlycovers_rejects_broken_hypotheses_and_alternates():
    bad = [
        ((5, 1, 0, 3, 0, (0, 0)), "case must be"),
        ((1, 0, 0, 3, 0, (0, 0)), "m, n >= 1"),
        ((1, 3, 0, 3, 0, (0, 0)), "case 1 requires n - 1 > m"),
        ((2, 1, 0, 2, 0, (0, 0)), "case 2 requires n > m and l >= 1"),
        ((3, 2, 1, 2, 1, (2, 2)), "case 3 requires n >= 2 and l > k"),
        ((4, 1, 0, 2, 2, (1, 2)), "case 4 requires m >= 2, n >= 2 and l - 1 > k"),
        ((1, 1, 0, 3, 0, (1, 0)), r"case 1 requires k' \+ l' = k \+ l"),
        ((2, 1, 0, 2, 1, (-1, 2)), "case 2 requires k' >= 0 and l' >= 0"),
        ((3, 2, 0, 2, 1, (3, 2)), r"case 3 requires m' \+ n' = m \+ n"),
        ((3, 2, 0, 2, 1, (3, 1)), "case 3 requires m' >= 1 and n' >= 2"),
        ((4, 2, 0, 2, 2, (0, 4)), "case 4 requires m' >= 1 and n' >= 2"),
    ]
    for (case, m, k, n, l, alt), message in bad:
        with pytest.raises(DomainError, match=message):
            onlycovers_pair(case, m, k, n, l, alt)
        with pytest.raises(DomainError, match=message):
            onlycovers_witness(case, m, k, n, l, alt)


def test_onlycovers_sweep():
    report = verify_onlycovers(10)
    assert report.ok, report.disagreements
    assert report.checked > 0


def test_onlycovers_reports_evidence_that_misstates_the_profiles(monkeypatch):
    sound = lattice.onlycovers_witness

    def swapped(*args):
        evidence = sound(*args)
        if evidence.profiles is None:
            return evidence
        return dataclasses.replace(evidence, profiles=evidence.profiles[::-1])

    monkeypatch.setattr(lattice, "onlycovers_witness", swapped)
    report = verify_onlycovers(8)
    dominance = [i for i in lattice._onlycovers_instances(8) if i[0] in (1, 3)]
    assert len(report.disagreements) == len(dominance) > 0
    for text in report.disagreements:
        assert text.endswith(": evidence profiles are not the diagram profiles")


def _common_content(evidence):
    lower, upper = expand(ribbon_of(evidence.lhs)), expand(ribbon_of(evidence.rhs))
    return next(p for p in lower if p in upper)


# Each wrong witness, as a change to the sound one's evidence.
_WRONG_WITNESSES = {
    "lhs and rhs swapped": lambda e: dataclasses.replace(e, lhs=e.rhs, rhs=e.lhs),
    "rhs replaced by reverse(lhs)": lambda e: dataclasses.replace(e, rhs=reverse(e.lhs)),
    "rhs without its first row": lambda e: dataclasses.replace(e, rhs=e.rhs[1:]),
    "profiles swapped": lambda e: dataclasses.replace(
        e, profiles=e.profiles and e.profiles[::-1]
    ),
    "content in both expansions": lambda e: dataclasses.replace(
        e, content=e.content and _common_content(e)
    ),
}


@pytest.mark.parametrize("wrong", _WRONG_WITNESSES)
def test_onlycovers_disagreements_match_the_per_instance_reference(monkeypatch, wrong):
    # A wrong witness must be reported exactly as one comparison per instance
    # reports it: the order is read off build_poset's up-sets, one poset per
    # size, so this is where a misread up-set or class index shows.
    sound, change = lattice.onlycovers_witness, _WRONG_WITNESSES[wrong]
    monkeypatch.setattr(lattice, "onlycovers_witness", lambda *args: change(sound(*args)))
    report = verify_onlycovers(8)
    assert report == verify_onlycovers_reference(8)
    assert report.checked == len(list(lattice._onlycovers_instances(8)))
    texts = report.disagreements
    if wrong == "lhs and rhs swapped":
        assert len(texts) == 456
        assert sum(t.endswith(": expansion says greater") for t in texts) == 380
    elif wrong == "rhs replaced by reverse(lhs)":
        assert len(texts) == report.checked
        assert all(t.endswith(": expansion says equal") for t in texts)
    elif wrong == "rhs without its first row":
        # Ribbons of different sizes are unrelated; only the evidence fails.
        assert texts and not any(": expansion says " in t for t in texts)
    elif wrong == "profiles swapped":
        assert texts and all(t.endswith(" are not the diagram profiles") for t in texts)
    else:
        assert texts and all(t.endswith(" present in the upper expansion") for t in texts)


def test_necessary_filter_admits_every_relation_onlycovers_reads():
    # verify_onlycovers reads the order off one build_poset per size, which
    # does not run the soundness check compare_diagrams makes; this makes it
    # on the same posets.
    alphas = {a for i in lattice._onlycovers_instances(12) for a in onlycovers_pair(*i)}
    place = lattice._ribbon_posets(alphas, 12)
    models = {id(model): model for _, model, _ in place.values()}.values()
    assert len(place) == 755 and len(models) == 9
    assert sum(map(len, models)) == 574
    pairs = 0
    for model in models:
        for lower, above in zip(model.classes, model.up):
            for j in _bits(above):
                pairs += 1
                x, y = lower.representative, model.classes[j].representative
                assert necessary_filter(y, x), (x, y)
    assert pairs == 3632


# --- multiplicity-freeness sweep -------------------------------------------------


def test_mflemma_sweep():
    report = verify_mflemma(9)
    assert report.ok, report.disagreements
    assert report.checked == 511  # compositions of every size up to nine


# --- trim statistics -------------------------------------------------------------


def test_trim_report_featured_size():
    report = trim_report(12, 6)
    assert report.join_irreducibles == 9
    assert report.meet_irreducibles == 9
    assert report.longest_chain_elements == 10
    assert report.left_modular_max_chain
    assert report.spine_left_modular
    assert report.spine_distributive


def test_trim_interior_sizes_have_n_minus_3_irreducibles():
    for n in range(5, 11):
        for rows in range(3, n - 1):
            report = trim_report(n, rows)
            assert report.join_irreducibles == n - 3
            assert report.meet_irreducibles == n - 3
            assert report.longest_chain_elements == n - 2
            assert report.left_modular_max_chain


def test_trim_boundary_sizes_collapse_to_chains():
    # At rows 2 and n-1 the boundary identifications leave a chain of
    # floor(n/2) elements; it is still trim, just smaller.
    for n in range(5, 13):
        for rows in (2, n - 1):
            report = trim_report(n, rows)
            chain = n // 2
            assert report.longest_chain_elements == chain
            assert report.join_irreducibles == chain - 1
            assert report.meet_irreducibles == chain - 1
            assert report.left_modular_max_chain


def test_trim_report_matches_brute_force_longest_chains():
    for n in range(5, 13):
        for rows in range(2, n):
            labels = elements(n, rows)
            leq = [[leq_s_closed(x, y) for y in labels] for x in labels]
            report = trim_report(n, rows)
            assert trim_flags(leq) == (
                report.join_irreducibles,
                report.meet_irreducibles,
                report.longest_chain_elements,
                report.left_modular_max_chain,
                report.spine_left_modular,
                report.spine_distributive,
            ), (n, rows)


def test_left_modular_labels_match_brute_force():
    labels = elements(12, 6)
    index = {label: i for i, label in enumerate(labels)}
    leq = [[leq_s_closed(x, y) for y in labels] for x in labels]
    meets = [[index[meet(x, y)] for y in labels] for x in labels]
    joins = [[index[join(x, y)] for y in labels] for x in labels]
    everything = range(len(labels))
    below = [(y, z) for y in everything for z in everything if y != z and leq[y][z]]
    modular = left_modular_set(leq)
    # Off the spine some labels are not left modular, so a test that marks
    # too many shows here.
    assert 0 < len(modular) < len(labels)
    assert _left_modular(list(everything), below, meets, joins) == modular
