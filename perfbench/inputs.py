"""Seeded workload inputs as plain data.

Nothing here imports schurpos: the parent process rebuilds the same inputs
from the seed to check the outputs, and the child turns them into library
objects during its set-up.
"""

from __future__ import annotations

import random

WORKLOADS = ("ribbon-poset", "expand-stream", "label-lattice", "verify-sweeps")

# ribbon-poset: two README-style CLI runs, captured in-process.
POSET_ARGVS = (
    ("poset", "--n", "10", "--ribbons", "--format", "json"),
    ("poset", "--n", "7", "--format", "dot"),
)

# expand-stream: 1000 triples (ribbon, basic skew shape, derived shape).
STREAM_TRIPLES = 1000
STREAM_SIZES = tuple(range(12, 17))
DERIVED_KINDS = ("repeat", "rotate", "transpose")

# label-lattice
TRIM_CONTEXT = (16, 8)
PAIR_CONTEXT = (20, 10)

# verify-sweeps
SWEEP_BOUND = 12
MFLEMMA_BOUND = 10
BIGDIFF_CONTEXTS = tuple((n, rows) for n in range(3, 13) for rows in range(2, n))
SWEEP_POSET_SIZES = (4, 5, 6)

Shape = tuple[tuple[int, ...], tuple[int, ...]]


def _strip(parts: list[int]) -> tuple[int, ...]:
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, (lam[0] if lam else 0) + 1))


def ribbon_shape(alpha: tuple[int, ...]) -> Shape:
    """Outer/inner partitions of the ribbon with row lengths alpha, top to bottom."""
    ell = len(alpha)
    outer = [0] * ell
    suffix = 0
    for i in range(ell - 1, -1, -1):
        suffix += alpha[i]
        outer[i] = suffix - (ell - 1 - i)
    inner = [outer[i + 1] - 1 for i in range(ell - 1)]
    return tuple(outer), _strip(inner)


def rotate_shape(shape: Shape) -> Shape:
    outer, inner = shape
    width = outer[0]
    padded = inner + (0,) * (len(outer) - len(inner))
    return (
        tuple(width - m for m in reversed(padded)),
        _strip([width - l for l in reversed(outer)]),
    )


def transpose_shape(shape: Shape) -> Shape:
    return conjugate(shape[0]), conjugate(shape[1])


def _composition(rng: random.Random, size: int) -> tuple[int, ...]:
    """A uniform random composition: a cut after each cell with probability 1/2."""
    cuts = rng.getrandbits(size - 1)
    parts, run = [], 1
    for b in range(size - 1):
        if cuts >> b & 1:
            parts.append(run)
            run = 1
        else:
            run += 1
    return tuple(parts) + (run,)


def _basic_skew_shape(rng: random.Random, size: int) -> Shape:
    """A random basic skew shape, grown bottom-up as column intervals.

    Each row above starts no left of the row below and at most one column
    past its end (so no column is empty) and ends no left of it; the start
    is drawn so that the row still fits in the cells left.
    """
    end = rng.randint(1, size)
    rows = [(1, end)]
    used = end
    while used < size:
        prev_start, prev_end = rows[-1]
        left = size - used
        start = rng.randint(max(prev_start, prev_end - left + 1), prev_end + 1)
        end = rng.randint(max(start, prev_end), start + left - 1)
        rows.append((start, end))
        used += end - start + 1
    rows.reverse()
    return tuple(e for _, e in rows), _strip([s - 1 for s, _ in rows])


def expand_stream(seed: int) -> list[tuple[str, Shape, int | None]]:
    """The expand-stream inputs: (kind, shape, index of the source draw or None).

    The stream is a run of triples: a ribbon of a uniform random composition,
    a random basic skew shape, and a repeat, 180-degree rotation or transpose
    of a random earlier ribbon or skew shape, cycling through the three kinds.
    Sizes cycle through STREAM_SIZES, so each size gets the same share.
    """
    rng = random.Random(seed)
    stream: list[tuple[str, Shape, int | None]] = []
    for i in range(STREAM_TRIPLES):
        size = STREAM_SIZES[i % len(STREAM_SIZES)]
        stream.append(("ribbon", ribbon_shape(_composition(rng, size)), None))
        stream.append(("skew", _basic_skew_shape(rng, size), None))
        kind = DERIVED_KINDS[i % len(DERIVED_KINDS)]
        source = 3 * rng.randint(0, i) + rng.randint(0, 1)
        shape = stream[source][1]
        if kind == "rotate":
            shape = rotate_shape(shape)
        elif kind == "transpose":
            shape = transpose_shape(shape)
        stream.append((kind, shape, source))
    return stream


def make(workload: str, seed: int) -> dict:
    """All inputs of a workload, as JSON-compatible data."""
    if workload == "ribbon-poset":
        return {"argvs": [list(a) for a in POSET_ARGVS]}
    if workload == "expand-stream":
        return {"stream": expand_stream(seed)}
    if workload == "label-lattice":
        return {"trim": TRIM_CONTEXT, "pairs": PAIR_CONTEXT}
    if workload == "verify-sweeps":
        return {
            "sweep_bound": SWEEP_BOUND,
            "mflemma_bound": MFLEMMA_BOUND,
            "bigdiff": BIGDIFF_CONTEXTS,
            "posets": SWEEP_POSET_SIZES,
        }
    raise ValueError(f"unknown workload {workload!r}")


def sizes(workload: str, data: dict) -> dict:
    """Input sizes recorded with every result."""
    if workload == "expand-stream":
        stream = data["stream"]
        return {
            "calls": len(stream),
            "distinct_shapes": len({shape for _, shape, _ in stream}),
            "cells": [min(STREAM_SIZES), max(STREAM_SIZES)],
        }
    if workload == "ribbon-poset":
        return {"argvs": [" ".join(a) for a in data["argvs"]]}
    return {key: value for key, value in data.items()}
