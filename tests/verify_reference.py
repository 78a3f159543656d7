"""The per-pair loops that verify_bigdiff and verify_onlycovers replaced.

Both sweeps read the expansion order off build_poset's up-sets.  These
references compare each pair on its own with compare_diagrams, so their
reports are what the sweeps must return, count, texts and order alike.  They
read `leq_s_closed` and `onlycovers_witness` through the module at call time,
so a test that patches the closed form or the witness patches both sides.
"""

from schurpos import (
    DEFAULT_EXPANSION_LIMIT,
    Relation,
    compare_diagrams,
    dominance_leq,
    expand,
    profile,
    ribbon_of,
)
from schurpos import lattice
from schurpos.poset import VerifyReport


def verify_bigdiff_reference(n, rows, max_size=DEFAULT_EXPANSION_LIMIT):
    labels = lattice.elements(n, rows)
    diagrams = {label: ribbon_of(lattice.ribbon_of_label(label)) for label in labels}
    checked = 0
    bad = []
    for x in labels:
        for y in labels:
            checked += 1
            closed = lattice.leq_s_closed(x, y)
            result = compare_diagrams(diagrams[y], diagrams[x], max_size)
            oracle = result.relation in (Relation.GREATER, Relation.EQUAL)
            if closed != oracle:
                bad.append(
                    f"{x} <= {y}: closed form says {closed}, expansion says "
                    f"{result.relation.value}"
                )
    return VerifyReport(checked, tuple(bad))


def verify_onlycovers_reference(max_size=12):
    kinds = ("rows-dominance", "cols-dominance")
    checked = 0
    bad = []
    for case, m, k, n, l, alt in lattice._onlycovers_instances(max_size):
        checked += 1
        evidence = lattice.onlycovers_witness(case, m, k, n, l, alt)
        lower, upper = ribbon_of(evidence.lhs), ribbon_of(evidence.rhs)
        tag = f"case {case}, (m,k,n,l)=({m},{k},{n},{l}), alt={alt}"
        result = compare_diagrams(upper, lower, max_size)
        if result.relation in (Relation.GREATER, Relation.EQUAL):
            bad.append(f"{tag}: expansion says {result.relation.value}")
            continue
        if evidence.kind in kinds:
            axis = kinds.index(evidence.kind)
            actual = (profile(upper)[axis], profile(lower)[axis])
            if evidence.profiles != actual:
                bad.append(f"{tag}: evidence profiles are not the diagram profiles")
            elif dominance_leq(*evidence.profiles):
                bad.append(f"{tag}: claimed dominance failure actually holds")
        else:
            if expand(lower, max_size)[evidence.content] < 1:
                bad.append(f"{tag}: witness content missing from the lower expansion")
            elif expand(upper, max_size)[evidence.content] != 0:
                bad.append(f"{tag}: witness content present in the upper expansion")
    return VerifyReport(checked, tuple(bad))
