"""Reference enumerators used to cross-check the fast implementations.

Everything here is deliberately naive and shares no code with the package:
fillings are built row by row with no search-order tricks, candidate entries
are bounded only by the cell count, and the lattice property is tested on the
complete reverse reading word only after a filling is finished.
"""

from __future__ import annotations

from itertools import product
from math import factorial, prod


def skew_cells(outer: tuple[int, ...], inner: tuple[int, ...]) -> list[tuple[int, int]]:
    """Cells of outer/inner as 0-indexed (row, col) pairs, row-major order."""
    pad = tuple(inner) + (0,) * (len(outer) - len(inner))
    return [(r, c) for r, width in enumerate(outer) for c in range(pad[r], width)]


def is_ballot(word: list[int]) -> bool:
    """Every prefix holds at least as many copies of v as of v + 1."""
    seen: dict[int, int] = {}
    for v in word:
        seen[v] = seen.get(v, 0) + 1
        if v > 1 and seen[v] > seen.get(v - 1, 0):
            return False
    return True


def schur_expansion(outer, inner=()) -> dict[tuple[int, ...], int]:
    """Schur coefficients of the skew shape, keyed by content partition."""
    cells = skew_cells(tuple(outer), tuple(inner))
    n = len(cells)
    counts: dict[tuple[int, ...], int] = {}
    filling: dict[tuple[int, int], int] = {}

    def finish() -> None:
        word = []
        for row in sorted({r for r, _ in cells}):
            for col in sorted((c for r, c in cells if r == row), reverse=True):
                word.append(filling[(row, col)])
        if not is_ballot(word):
            return
        top = max(word, default=0)
        content = tuple(word.count(v) for v in range(1, top + 1))
        counts[content] = counts.get(content, 0) + 1

    def place(i: int) -> None:
        if i == n:
            finish()
            return
        r, c = cells[i]
        lo = 1
        if (r, c - 1) in filling:
            lo = max(lo, filling[(r, c - 1)])
        if (r - 1, c) in filling:
            lo = max(lo, filling[(r - 1, c)] + 1)
        for v in range(lo, n + 1):
            filling[(r, c)] = v
            place(i + 1)
        filling.pop((r, c), None)

    place(0)
    return counts


def subpartitions(lam: tuple[int, ...]):
    """All partitions contained in lam."""
    for mu in product(*(range(part + 1) for part in lam)):
        if all(mu[i] >= mu[i + 1] for i in range(len(mu) - 1)):
            yield tuple(p for p in mu if p > 0)


def partitions_in_box(rows: int, width: int):
    """Partitions with at most `rows` parts, each at most `width`."""
    def rec(remaining_rows: int, cap: int):
        yield ()
        if remaining_rows == 0:
            return
        for first in range(1, cap + 1):
            for rest in rec(remaining_rows - 1, first):
                yield (first,) + rest
    yield from rec(rows, width)


def normalized_cells(outer, inner) -> frozenset[tuple[int, int]]:
    """Cell set with empty rows and columns deleted and indices compacted."""
    cells = skew_cells(tuple(outer), tuple(inner))
    rows = sorted({r for r, _ in cells})
    cols = sorted({c for _, c in cells})
    row_at = {r: i for i, r in enumerate(rows)}
    col_at = {c: i for i, c in enumerate(cols)}
    return frozenset((row_at[r], col_at[c]) for r, c in cells)


def is_connected_by_flood_fill(cells) -> bool:
    """Whether the (row, col) cells form one edgewise-connected component."""
    unseen = set(cells)
    if not unseen:
        return False
    stack = [unseen.pop()]
    while stack:
        r, c = stack.pop()
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nb in unseen:
                unseen.remove(nb)
                stack.append(nb)
    return not unseen


def rectangle_table_by_cell_walk(cells) -> dict[tuple[int, int], int]:
    """Map (m, n) -> number of m-by-n rectangles of cells, zero counts omitted.

    From each cell as top-left corner, walk down one row at a time, keeping
    the width of the run of cells common to all rows so far.
    """
    cells = set(cells)
    table: dict[tuple[int, int], int] = {}
    for i, j in cells:
        width = len(cells)
        m = 0
        while (i + m, j) in cells and width:
            run = 0
            while run < width and (i + m, j + run) in cells:
                run += 1
            width = run
            m += 1
            for n in range(1, width + 1):
                table[m, n] = table.get((m, n), 0) + 1
    return table


def basic_skew_cell_sets(n: int) -> set[frozenset[tuple[int, int]]]:
    """Every basic skew shape with n cells, as a normalized cell set."""
    shapes: set[frozenset[tuple[int, int]]] = set()
    for lam in partitions_in_box(n, n):
        if not n <= sum(lam) <= n * n:
            continue
        for mu in subpartitions(lam):
            if sum(lam) - sum(mu) == n:
                shapes.add(normalized_cells(lam, mu))
    return shapes


def standard_tableaux(lam: tuple[int, ...]) -> int:
    """f^lam by the hook-length formula."""
    cols = [sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0)]
    hooks = prod(
        (lam[i] - j - 1) + (cols[j] - i - 1) + 1
        for i in range(len(lam))
        for j in range(lam[i])
    )
    return factorial(sum(lam)) // hooks


def count_standard_fillings(outer, inner=()) -> int:
    """Standard fillings of outer/inner, counted by the cell of the largest entry.

    That cell ends a row longer than both the row below it and inner's row,
    and removing it leaves the shape the smaller entries fill.
    """
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    memo: dict[tuple[int, ...], int] = {inner: 1}

    def count(shape: tuple[int, ...]) -> int:
        if shape not in memo:
            memo[shape] = sum(
                count(shape[:r] + (width - 1,) + shape[r + 1:])
                for r, width in enumerate(shape)
                if width > max(shape[r + 1] if r + 1 < len(shape) else 0, inner[r])
            )
        return memo[shape]

    return count(tuple(outer))
