"""The ordered double loop that verify_bigdiff replaced.

verify_bigdiff reads the expansion order off build_poset's up-sets.  This
reference compares every ordered pair on its own with compare_diagrams, so
its report is what verify_bigdiff must return, count, texts and order alike.  It reads `leq_s_closed` through the module at call
time, so a test that patches the closed form patches both.
"""

from schurpos import DEFAULT_EXPANSION_LIMIT, Relation, compare_diagrams, ribbon_of
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
