"""Closed-form model of the multiplicity-free ribbon poset.

Multiplicity-free ribbons with n cells and a fixed number of rows, taken up
to Schur-function equality, are indexed by the dimensions of the rectangle
inside their skew shape.  On those rectangle labels the Schur-positivity
order is a product of two zigzag chains, which makes order tests, meets, and
joins closed-form; covers are the transitive reduction of that order.
Everything here can be cross-checked against the Littlewood-Richardson
engine, and the verify_* functions do exactly that.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from operator import attrgetter, gt, lt

from .diagrams import SkewDiagram, _ribbon_profile, mf_pattern, ribbon_of
from .errors import DomainError
from .lr import (
    DEFAULT_EXPANSION_LIMIT,
    Relation,
    SchurVector,
    _check_size,
    compare_vectors,
    expand,
    is_multiplicity_free_vec,
)
from .partitions import (
    Composition,
    Partition,
    _integers,
    as_composition,
    as_partition,
    compositions_of,
    conjugate,
    dominance_leq,
    reverse,
)
from .poset import PosetModel, VerifyReport, _covers, _trim_stats, build_poset


def _check_context(n: int, rows: int) -> tuple[int, int]:
    n, rows = _integers((n, rows), "n and rows")
    if not 2 <= rows <= n - 1:
        raise DomainError(f"rectangle labels need 2 <= rows <= n - 1, got rows={rows}, n={n}")
    return n, rows


def _fold(a: int, b: int, ell: int, nl: int) -> tuple[int, int]:
    """Grid point (a, b) for rows = ell, n - rows = nl, folded as canonical_label says."""
    if a == ell - 1:
        if b == 0:
            return a, nl
        if b != nl:
            return a, min(b, nl - b)
    elif b == nl:
        if a == 0:
            return ell - 1, b
        return min(a, ell - 1 - a), b
    return a, b


@dataclass(frozen=True)
class RectLabel:
    """Canonical rectangle label [a, b] for a multiplicity-free ribbon class.

    The class of ribbons with n cells and `rows` rows whose shape complements
    an a-by-b rectangle sits at [a, b].  Boundary classes admit two rectangle
    descriptions; only the canonical one (smaller index) is allowed here.
    """

    a: int
    b: int
    n: int
    rows: int

    def __post_init__(self) -> None:
        n, ell = _check_context(self.n, self.rows)
        a, b = _integers((self.a, self.b), "label coordinates")
        _check_canonical(a, b, n, ell, (self.a, self.b, self.n, self.rows))
        # Store the normalized ints, so that True prints as 1, as in partitions.
        for field, value in zip(("a", "b", "n", "rows"), (a, b, n, ell)):
            object.__setattr__(self, field, value)

    def __str__(self) -> str:
        return f"[{self.a},{self.b}]"


def _check_canonical(a: int, b: int, n: int, rows: int, shown: tuple[object, ...]) -> None:
    """Refuse the point (a, b) of the checked context (n, rows) unless it is a
    canonical label, naming the label by shown, its (a, b, n, rows) as given."""
    nl = n - rows
    if not (1 <= a < rows and 1 <= b <= nl and _fold(a, b, rows, nl) == (a, b)):
        raise DomainError("[{},{}] is not a canonical label for n={}, rows={}".format(*shown))


def canonical_label(a: int, b: int, n: int, rows: int) -> RectLabel:
    """Build a label, folding the boundary identifications first.

    [rows-1, b] equals [rows-1, (n-rows)-b] and [a, n-rows] equals
    [rows-1-a, n-rows]; the degenerate corner forms [rows-1, 0] and
    [0, n-rows] both name the bottom class.
    """
    n, rows = _check_context(n, rows)
    a, b = _integers((a, b), "label coordinates")
    if not (0 <= a <= rows - 1 and 0 <= b <= n - rows):
        raise DomainError(
            f"grid coordinates need 0 <= a <= rows - 1 and 0 <= b <= n - rows, "
            f"got a={a}, b={b} for n={n}, rows={rows}"
        )
    a, b = _fold(a, b, rows, n - rows)
    _check_canonical(a, b, n, rows, (a, b, n, rows))
    return _label(a, b, n, rows)


def _label(a: int, b: int, n: int, rows: int) -> RectLabel:
    """A label from a canonical point of a checked context, unchecked."""
    label = RectLabel.__new__(RectLabel)
    for field, value in zip(("a", "b", "n", "rows"), (a, b, n, rows)):
        object.__setattr__(label, field, value)
    return label


def elements(n: int, rows: int) -> list[RectLabel]:
    """All canonical labels for size n and the given row count, in (a, b) order."""
    n, rows = _check_context(n, rows)
    ell, nl = rows, n - rows
    return [
        _label(a, b, n, rows)
        for a in range(1, ell)
        for b in range(1, nl + 1)
        if _fold(a, b, ell, nl) == (a, b)
    ]


def _rank(x: int, top: int) -> int:
    """Height of x in the zigzag chain on 1..top.

    A label's a lies on the chain with top = rows - 1, its b on the one with
    top = n - rows.  The chain orders 1..top by closeness to the middle of
    that range; of two values equally close, the larger sits lower.  Any
    fixed tie-break offset in (0, 1/2) yields these ranks, so they are
    computed with the offset 1/4, scaled by 4 to stay integral.
    """
    return -abs(4 * x - 2 * top - 1)


def _same_context(l1: RectLabel, l2: RectLabel) -> None:
    if (l1.n, l1.rows) != (l2.n, l2.rows):
        raise DomainError(
            f"labels from different posets: n={l1.n}, rows={l1.rows} vs n={l2.n}, rows={l2.rows}"
        )


def leq_s_closed(l1: RectLabel, l2: RectLabel) -> bool:
    """Closed-form Schur-positivity comparison: componentwise in chain rank."""
    _same_context(l1, l2)
    h, w = l1.rows - 1, l1.n - l1.rows
    return _rank(l1.a, h) <= _rank(l2.a, h) and _rank(l1.b, w) <= _rank(l2.b, w)


def _bound(l1: RectLabel, l2: RectLabel, before: Callable[[int, int], bool]) -> RectLabel:
    """Take each coordinate of l2 whose chain rank comes before (lt: below,
    gt: above) that of l1's, and l1's otherwise; ranks are injective, so a
    tie means equal coordinates.  The point is folded, since a bottomed-out
    coordinate may leave the canonical form."""
    _same_context(l1, l2)
    n, ell = l1.n, l1.rows
    h, w = ell - 1, n - ell
    a = l2.a if before(_rank(l2.a, h), _rank(l1.a, h)) else l1.a
    b = l2.b if before(_rank(l2.b, w), _rank(l1.b, w)) else l1.b
    return _label(*_fold(a, b, ell, w), n, ell)


def join(l1: RectLabel, l2: RectLabel) -> RectLabel:
    """Least upper bound: componentwise maximum in chain rank.

    The result is a frozen label built in O(1) from the two points; no
    context's labels are ever enumerated."""
    return _bound(l1, l2, gt)


def meet(l1: RectLabel, l2: RectLabel) -> RectLabel:
    """Greatest lower bound: componentwise minimum in chain rank.

    The result is a frozen label built in O(1) from the two points; no
    context's labels are ever enumerated."""
    return _bound(l1, l2, lt)


def _label_levels(labels: list[RectLabel]) -> list[dict[int, int]]:
    """The levels of each label of one context for poset._up_sets and
    poset._covers, whose threshold order is then leq_s_closed: a label's
    levels are its two chain ranks, which may be negative, since only their
    order counts."""
    return [{0: _rank(x.a, x.rows - 1), 1: _rank(x.b, x.n - x.rows)} for x in labels]


def covers(n: int, rows: int) -> list[tuple[RectLabel, RectLabel]]:
    """Cover pairs (lower, upper) of the label poset, ordered by
    (lower.a, lower.b, upper.a, upper.b): the transitive reduction of
    leq_s_closed."""
    labels = elements(n, rows)
    return [(labels[i], labels[j]) for i, j in _covers(_label_levels(labels))]


def ribbon_of_label(label: RectLabel) -> Composition:
    """Row lengths of the representative ribbon of the class at the label."""
    ell, nl = label.rows, label.n - label.rows
    return (
        (nl - label.b + 1,)
        + (1,) * (label.a - 1)
        + (label.b + 1,)
        + (1,) * (ell - label.a - 1)
    )


def label_of_ribbon(alpha: Iterable[int]) -> RectLabel:
    """Canonical rectangle label of a multiplicity-free ribbon's class.

    Errors when the ribbon is not multiplicity-free or when its row count is
    degenerate (a single row, or all rows of length one) and so falls outside
    the rectangle indexing.
    """
    alpha = as_composition(alpha)
    total, ell = sum(alpha), len(alpha)
    if not 2 <= ell <= total - 1:
        raise DomainError(
            f"no rectangle label: {alpha} needs 2 <= rows <= size - 1"
        )
    patterns = {mf_pattern(beta) for beta in {alpha, reverse(alpha)}}
    if None in patterns:
        raise DomainError(f"{alpha} is not a multiplicity-free ribbon")
    # A reading (m, 1^k, n, 1^l) sits at [k + 1, n - 1], or at the bottom when n = 1.
    found = {
        canonical_label(p.k + 1, p.n - 1, total, ell)
        if p.n > 1
        else canonical_label(ell - 1, total - ell, total, ell)
        for p in patterns
    }
    if len(found) != 1:
        raise RuntimeError(
            f"label candidates disagree for {alpha}: {sorted(map(str, found))}"
        )
    return found.pop()


def schubert_pair(label: RectLabel) -> tuple[Partition, Partition]:
    """Partitions (kappa, tau) indexing the Schubert-class translation.

    The difference of the products sigma_kappa . sigma_tau attached to two
    labels (in the Grassmannian of rows-planes in n-space) is Schubert
    positive exactly when the ribbon difference is Schur positive.
    """
    ell, nl = label.rows, label.n - label.rows
    first = as_partition((label.a,) * label.b)
    second = as_partition(
        (nl,) * (ell - label.a - 1) + (nl - label.b,) * label.a
    )
    return first, second


# --- exact difference formulas for the four cover families -----------------

# One row per cover family of the pattern (m, 1^k, n, 1^l): the hypothesis on
# (m, k, n, l) and its text; then the positions in (m, k, n, l) of the pair
# that the alternate of onlycovers_pair replaces, keeping its sum, and the
# least values of that pair.
_FAMILIES: dict[int, tuple[Callable[..., bool], str, tuple[int, int], tuple[int, int]]] = {
    1: (lambda m, k, n, l: n - 1 > m, "n - 1 > m", (1, 3), (0, 0)),
    2: (lambda m, k, n, l: n > m and l >= 1, "n > m and l >= 1", (1, 3), (0, 0)),
    3: (lambda m, k, n, l: n >= 2 and l > k, "n >= 2 and l > k", (0, 2), (1, 2)),
    4: (lambda m, k, n, l: m >= 2 and n >= 2 and l - 1 > k,
        "m >= 2, n >= 2 and l - 1 > k", (0, 2), (1, 2)),
}


def _check_fourcovers(case: int, m: int, k: int, n: int, l: int) -> None:
    if case not in _FAMILIES:
        raise DomainError(f"case must be 1, 2, 3, or 4, got {case}")
    if m < 1 or n < 1 or k < 0 or l < 0:
        raise DomainError("patterns need m, n >= 1 and k, l >= 0")
    holds, hypothesis, _, _ = _FAMILIES[case]
    if not holds(m, k, n, l):
        raise DomainError(f"case {case} requires {hypothesis}")


def fourcovers_pair(
    case: int, m: int, k: int, n: int, l: int
) -> tuple[Composition, Composition]:
    """The (upper, lower) ribbons whose difference the closed form gives.

    All four lower ribbons follow the two-block pattern (m, 1^k, n, 1^l); the
    upper one is the neighbouring pattern in the relevant chain direction.
    """
    _check_fourcovers(case, m, k, n, l)
    return _cover_ribbons(case, m, k, n, l)


def _cover_ribbons(
    case: int, m: int, k: int, n: int, l: int
) -> tuple[Composition, Composition]:
    """fourcovers_pair without the hypothesis check."""
    base = (m,) + (1,) * k + (n,) + (1,) * l
    if case == 1:
        return (n - 1,) + (1,) * k + (m + 1,) + (1,) * l, base
    if case == 2:
        return base, (n,) + (1,) * k + (m,) + (1,) * l
    if case == 3:
        return base, (m,) + (1,) * l + (n,) + (1,) * k
    return (m,) + (1,) * (l - 1) + (n,) + (1,) * (k + 1), base


def fourcovers_delta(case: int, m: int, k: int, n: int, l: int) -> SchurVector:
    """Closed-form Schur expansion of the cover difference.

    Cases 3 and 4 are the images of cases 1 and 2 under the omega involution,
    hence the conjugated shape of their summands.
    """
    _check_fourcovers(case, m, k, n, l)
    terms: dict[Partition, int] = {}
    if case == 1:
        for i in range(min(k, l) + 1):
            terms[(n - 1, m + 1) + (2,) * i + (1,) * (k + l - 2 * i)] = 1
    elif case == 2:
        for i in range(min(k, l - 1) + 1):
            terms[(n, m + 1) + (2,) * i + (1,) * (k + l - 2 * i - 1)] = 1
    elif case == 3:
        for i in range(min(n - 2, m - 1) + 1):
            terms[(n + m - i - 1, i + 2) + (2,) * k + (1,) * (l - k - 1)] = 1
    else:
        for i in range(min(n - 2, m - 2) + 1):
            terms[(n + m - i - 2, i + 2) + (2,) * (k + 1) + (1,) * (l - k - 2)] = 1
    return SchurVector(terms)


# --- certified non-relations ------------------------------------------------

def _alternate_params(
    case: int, m: int, k: int, n: int, l: int, alt: tuple[int, int]
) -> list[int]:
    """(m, k, n, l) with the family's alternate pair replaced by alt, once
    the pattern and alt are checked."""
    _check_fourcovers(case, m, k, n, l)
    _, _, (i, j), (least_p, least_q) = _FAMILIES[case]
    params = [m, k, n, l]
    x, y = "mknl"[i], "mknl"[j]
    p, q = alt
    if p < least_p or q < least_q:
        raise DomainError(
            f"case {case} requires {x}' >= {least_p} and {y}' >= {least_q}"
        )
    if p + q != params[i] + params[j]:
        raise DomainError(f"case {case} requires {x}' + {y}' = {x} + {y}")
    params[i], params[j] = p, q
    return params


def onlycovers_pair(
    case: int, m: int, k: int, n: int, l: int, alt: tuple[int, int]
) -> tuple[Composition, Composition]:
    """Ribbons (x, y) certified to satisfy "x is not below y".

    x is the upper ribbon of the family's cover at (m, k, n, l); y is its
    lower ribbon with `alt` in place of (k, l) (cases 1, 2) or (m, n) (cases
    3, 4), keeping their sum.  x covers its own lower ribbon and lies below
    none of the family's lower ribbons with the same sums.
    """
    lower = _alternate_params(case, m, k, n, l, alt)
    return _cover_ribbons(case, m, k, n, l)[0], _cover_ribbons(case, *lower)[1]


# RefutationEvidence kinds for a failed dominance, indexed by profile axis,
# and the diagram lengths that each axis sorts into a profile.
_DOMINANCE_KINDS = ("rows-dominance", "cols-dominance")
_AXIS_LENGTHS = (SkewDiagram.row_lengths, SkewDiagram.column_lengths)


@dataclass(frozen=True)
class RefutationEvidence:
    """Why lhs cannot sit below rhs in the Schur-positivity order.

    kind "rows-dominance" / "cols-dominance": profiles holds the pair
    (profile of rhs, profile of lhs) for which the dominance required of an
    upper element fails.  kind "coefficient": content names a partition whose
    coefficient is positive in lhs's expansion but zero in rhs's.
    """

    kind: str
    lhs: Composition
    rhs: Composition
    profiles: tuple[Partition, Partition] | None = None
    content: Partition | None = None


def onlycovers_witness(
    case: int, m: int, k: int, n: int, l: int, alt: tuple[int, int]
) -> RefutationEvidence:
    """Closed-form evidence for the non-relation of onlycovers_pair.

    Cases 1 and 3 fail a dominance necessary condition (on rows resp.
    columns); cases 2 and 4 exhibit a content that only the left expansion
    contains.
    """
    x, y = onlycovers_pair(case, m, k, n, l, alt)
    if case in (1, 3):
        axis = 0 if case == 1 else 1
        return RefutationEvidence(
            _DOMINANCE_KINDS[axis],
            x,
            y,
            profiles=(_ribbon_profile(y, axis), _ribbon_profile(x, axis)),
        )
    if case == 2:
        content = (n, m + 1) + (1,) * (k + l - 1)
    else:
        content = conjugate((l + 1, k + 3) + (1,) * (m + n - 4))
    return RefutationEvidence("coefficient", x, y, content=as_partition(content))


# --- exhaustive verification against the expansion engine -------------------


def _pattern_params(max_total: int) -> Iterator[tuple[int, int, int, int]]:
    for m in range(1, max_total):
        for n in range(1, max_total - m + 1):
            for k in range(max_total - m - n + 1):
                for l in range(max_total - m - n - k + 1):
                    yield m, k, n, l


def _fourcovers_instances(max_total: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Each (case, m, k, n, l) of total size <= max_total that meets the
    hypothesis of its case."""
    for case, (holds, *_) in _FAMILIES.items():
        for m, k, n, l in _pattern_params(max_total):
            if holds(m, k, n, l):
                yield case, m, k, n, l


def verify_fourcovers(max_size: int = 12) -> VerifyReport:
    """Check every closed-form cover difference of total size <= max_size."""
    instances = list(_fourcovers_instances(max_size))
    bad = []
    for case, m, k, n, l in instances:
        upper, lower = fourcovers_pair(case, m, k, n, l)
        claimed = fourcovers_delta(case, m, k, n, l)
        result = compare_vectors(
            expand(ribbon_of(upper), max_size), expand(ribbon_of(lower), max_size)
        )
        if result.relation is not Relation.GREATER or result.difference != claimed:
            bad.append(
                f"case {case}, (m,k,n,l)=({m},{k},{n},{l}): "
                f"expansion gives {result.relation.value}, claimed difference mismatch"
            )
    return VerifyReport(len(instances), tuple(bad))


def _onlycovers_instances(
    max_size: int,
) -> Iterator[tuple[int, int, int, int, int, tuple[int, int]]]:
    for case, *params in _fourcovers_instances(max_size):
        _, _, (i, j), (least_p, least_q) = _FAMILIES[case]
        total = params[i] + params[j]
        for p in range(least_p, total - least_q + 1):
            yield (case, *params, (p, total - p))


def _ribbon_posets(
    alphas: Iterable[Composition], max_size: int
) -> dict[Composition, tuple[SkewDiagram, PosetModel, int]]:
    """Each composition's ribbon, the build_poset of the given ribbons of its
    size, and its class's index there: both label sweeps order ribbons here."""
    by_size: dict[int, dict[Composition, SkewDiagram]] = {}
    for alpha in alphas:
        by_size.setdefault(sum(alpha), {})[alpha] = ribbon_of(alpha)
    place = {}
    for ribbons in by_size.values():
        model = build_poset(ribbons.values(), max_size)
        class_of = {d: c for c, cls in enumerate(model.classes) for d in cls.members}
        place.update((alpha, (d, model, class_of[d])) for alpha, d in ribbons.items())
    return place


def verify_onlycovers(max_size: int = 12) -> VerifyReport:
    """Check every certified non-relation of total size <= max_size.

    The candidate upper ribbon of each instance must not sit at or above the
    lower one in the expansion order, which is read off one build_poset per
    size on the instances' ribbons.  The closed-form evidence must then hold
    verbatim: the claimed dominance really fails, or the claimed content
    really separates the expansions.
    """
    instances = list(_onlycovers_instances(max_size))
    place = _ribbon_posets(
        {alpha for instance in instances for alpha in onlycovers_pair(*instance)}, max_size
    )
    bad = []
    for case, m, k, n, l, alt in instances:
        evidence = onlycovers_witness(case, m, k, n, l, alt)
        where = place
        if evidence.lhs not in place or evidence.rhs not in place:
            # A witness that names ribbons other than its instance's.
            where = _ribbon_posets({evidence.lhs, evidence.rhs}, max_size)
        lower, model, i = where[evidence.lhs]
        upper, upper_model, j = where[evidence.rhs]
        # Ribbons of different sizes sit in different posets and are unrelated.
        if model is upper_model and model.up[i] >> j & 1:
            relation = Relation.EQUAL if i == j else Relation.GREATER
            problem = f"expansion says {relation.value}"
        elif evidence.kind in _DOMINANCE_KINDS:
            lengths = _AXIS_LENGTHS[_DOMINANCE_KINDS.index(evidence.kind)]
            actual = tuple(tuple(sorted(lengths(d), reverse=True)) for d in (upper, lower))
            if evidence.profiles != actual:
                problem = "evidence profiles are not the diagram profiles"
            elif dominance_leq(*evidence.profiles):
                problem = "claimed dominance failure actually holds"
            else:
                continue
        elif model.classes[i].expansion[evidence.content] < 1:
            problem = "witness content missing from the lower expansion"
        elif upper_model.classes[j].expansion[evidence.content] != 0:
            problem = "witness content present in the upper expansion"
        else:
            continue
        bad.append(f"case {case}, (m,k,n,l)=({m},{k},{n},{l}), alt={alt}: {problem}")
    return VerifyReport(len(instances), tuple(bad))


def verify_bigdiff(
    n: int, rows: int, max_size: int = DEFAULT_EXPANSION_LIMIT
) -> VerifyReport:
    """Compare the closed-form order with the expansion order on every pair.

    The order is read off the poset _ribbon_posets builds on the labels'
    ribbons; a disagreement names how y's ribbon compares with x's.  Every
    ribbon has n cells, so n is checked against max_size before any label
    is built.
    """
    n, rows = _check_context(n, rows)
    _check_size(n, max_size)
    labels = elements(n, rows)
    alphas = [ribbon_of_label(label) for label in labels]
    place = _ribbon_posets(alphas, max_size)
    index = [place[alpha][2] for alpha in alphas]
    model = place[alphas[0]][1]
    bad = []
    for x, i in zip(labels, index):
        for y, j in zip(labels, index):
            closed = leq_s_closed(x, y)
            oracle = bool(model.up[i] >> j & 1)
            if closed != oracle:
                relation = compare_vectors(
                    model.classes[j].expansion, model.classes[i].expansion
                ).relation
                bad.append(
                    f"{x} <= {y}: closed form says {closed}, expansion says "
                    f"{relation.value}"
                )
    return VerifyReport(len(labels) ** 2, tuple(bad))


def verify_mflemma(max_size: int = 10) -> VerifyReport:
    """Check the two-block multiplicity-freeness pattern on all ribbons.

    For every composition of every size up to max_size, the pattern matcher
    must agree with direct inspection of the expansion's coefficients, and a
    successful match must reproduce the composition it was given.
    """
    alphas = [alpha for size in range(1, max_size + 1) for alpha in compositions_of(size)]
    bad = []
    for alpha in alphas:
        pattern = mf_pattern(alpha)
        free = is_multiplicity_free_vec(expand(ribbon_of(alpha), max_size))
        if (pattern is not None) != free:
            verdict = "matches" if pattern is not None else "matches nothing"
            bad.append(
                f"{alpha}: pattern {verdict} but expansion is "
                f"{'free' if free else 'not free'}"
            )
        elif pattern is not None and pattern.composition() != alpha:
            bad.append(f"{alpha}: pattern rebuilds {pattern.composition()}")
    return VerifyReport(len(alphas), tuple(bad))


# --- trim-lattice statistics -------------------------------------------------


@dataclass(frozen=True)
class TrimReport:
    """Structural statistics of the label lattice at one (n, rows)."""

    join_irreducibles: int
    meet_irreducibles: int
    longest_chain_elements: int
    left_modular_max_chain: bool
    spine_left_modular: bool
    spine_distributive: bool


def trim_report(n: int, rows: int) -> TrimReport:
    """Measure how far the label lattice is from being graded yet trim.

    Reports the number of join- and meet-irreducible elements, the number of
    elements on a longest chain, whether some longest chain consists of
    left-modular elements only, whether every element lying on any longest
    chain is left modular, and whether those elements form a distributive
    sublattice.
    """
    labels = elements(n, rows)
    point = attrgetter("a", "b")  # an int pair hashes and compares faster than a label
    index = {point(x): i for i, x in enumerate(labels)}
    meets = [[index[point(meet(x, y))] for y in labels] for x in labels]
    joins = [[index[point(join(x, y))] for y in labels] for x in labels]
    return TrimReport(*_trim_stats(_label_levels(labels), meets, joins))
