"""Brute-force order theory: the reference for the bitset order kernel.

Every function but `bitset_covers` reads a reflexive `leq` matrix and works
by direct search: covers by looking for an element strictly between, chains
by listing every saturated chain, bounds by listing every upper or lower
bound.  `bitset_covers` reads up-set bitmasks, as the library does, but
needs no linear extension.  Nothing here shares code with `schurpos.poset`
or `schurpos.lattice`.
"""

from itertools import combinations


def covers(leq):
    """Pairs i < j with no k strictly between them."""
    n = len(leq)
    return {
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and leq[i][j]
        and not any(k not in (i, j) and leq[i][k] and leq[k][j] for k in range(n))
    }


def bitset_covers(up):
    """Cover pairs (lower, upper) in increasing order from up-set bitmasks (bit
    j of up[i] set when i <= j), in any index order: the transitive reduction
    of Aho, Garey and Ullman.  Of the elements strictly above i, the covers
    are those strictly above none of the others."""
    pairs = []
    for i, above in enumerate(up):
        strict = rest = above & ~(1 << i)
        for j in range(strict.bit_length()):
            if strict >> j & 1 and rest >> j & 1:
                rest &= ~(up[j] & ~(1 << j))
        pairs.extend((i, j) for j in range(rest.bit_length()) if rest >> j & 1)
    return pairs


def saturated_chains(leq, start):
    """Every chain start = v0 < v1 < ... < vk in which each step is a cover."""
    succ = {}
    for lo, hi in covers(leq):
        succ.setdefault(lo, []).append(hi)
    chains = []

    def extend(chain):
        chains.append(chain)
        for w in succ.get(chain[-1], ()):
            extend(chain + (w,))

    extend((start,))
    return chains


def is_graded(leq):
    """All saturated chains between any two comparable elements have one length."""
    for x in range(len(leq)):
        lengths = {}
        for chain in saturated_chains(leq, x):
            lengths.setdefault(chain[-1], set()).add(len(chain))
        if any(len(found) > 1 for found in lengths.values()):
            return False
    return True


def least(leq, candidates):
    """The element of `candidates` below all the others, or None."""
    for u in candidates:
        if all(leq[u][k] for k in candidates):
            return u
    return None


def is_join_semilattice(leq):
    n = len(leq)
    for i in range(n):
        for j in range(n):
            uppers = [k for k in range(n) if leq[i][k] and leq[j][k]]
            if uppers and least(leq, uppers) is None:
                return False
    return True


def is_convex(leq, members):
    """No element outside `members` lies strictly between two members."""
    n = len(leq)
    return not any(
        leq[a][b] and leq[b][c]
        for a in members
        for c in members
        for b in range(n)
        if b not in members
    )


def bounds(leq):
    """Meet and join dicts of a finite lattice, keyed by pairs of elements."""
    n = len(leq)
    join = {
        (x, y): least(leq, [k for k in range(n) if leq[x][k] and leq[y][k]])
        for x in range(n)
        for y in range(n)
    }
    geq = [list(col) for col in zip(*leq)]
    meet = {
        (x, y): least(geq, [k for k in range(n) if leq[k][x] and leq[k][y]])
        for x in range(n)
        for y in range(n)
    }
    return meet, join


def left_modular_set(leq):
    """Every x of a finite lattice with (y v x) ^ z == y v (x ^ z) for all y <= z."""
    n = len(leq)
    meet, join = bounds(leq)
    return {
        x
        for x in range(n)
        if all(
            meet[join[y, x], z] == join[y, meet[x, z]]
            for y in range(n)
            for z in range(n)
            if leq[y][z]
        )
    }


def trim_flags(leq):
    """The six trim_report statistics of a finite lattice, by enumeration.

    Returns (join-irreducibles, meet-irreducibles, elements on a longest
    chain, some longest chain is all left modular, every element on a
    longest chain is left modular, those elements form a distributive
    sublattice).
    """
    n = len(leq)
    edges = covers(leq)
    join_irr = sum(1 for v in range(n) if sum(hi == v for _, hi in edges) == 1)
    meet_irr = sum(1 for v in range(n) if sum(lo == v for lo, _ in edges) == 1)

    bottoms = [v for v in range(n) if not any(hi == v for _, hi in edges)]
    chains = [c for v in bottoms for c in saturated_chains(leq, v)]
    longest = max(len(c) for c in chains)
    longest_chains = [c for c in chains if len(c) == longest]
    spine = sorted({v for c in longest_chains for v in c})

    meet, join = bounds(leq)
    modular = left_modular_set(leq)
    some_chain = any(all(v in modular for v in c) for c in longest_chains)
    all_spine = all(v in modular for v in spine)
    spine_set = set(spine)
    distributive = all(
        meet[x, y] in spine_set and join[x, y] in spine_set
        for x, y in combinations(spine, 2)
    ) and all(
        meet[x, join[y, z]] == join[meet[x, y], meet[x, z]]
        for x in spine
        for y, z in combinations(spine, 2)
    )
    return join_irr, meet_irr, longest, some_chain, all_spine, distributive
