"""Output checks that do not use the schurpos engine.

Each check takes a workload's inputs and the outputs a child reported and
returns a Verdict: how many ops the outputs cover, which of them failed, and
any failure that belongs to no single op.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from inputs import conjugate

# SHA-256 of the stdout of each ribbon-poset CLI run, recorded at the commit
# that introduced this benchmark. The CLI output must stay byte-identical.
POSET_STDOUT_SHA256 = (
    "93f271bee466a8f368c6cc89a1edf99247a822545c9d82548ee431db26b025e4",
    "2b70b3d449d91e8ebf2b6771e7348fc2b0c45805e598768d8e474ffc361aa26b",
)
POSET_COUNTS = ((272, 478), (198, 455))

# Instance counts of the acceptance sweeps (acceptance criteria 2, 3, 4, 7).
SWEEP_INSTANCES = {"fourcovers": 1015, "onlycovers": 4748, "bigdiff": 8719, "mflemma": 1023}
# (classes, Hasse edges, graded, join-semilattice) of the basic-shape posets
# of sizes 4, 5 and 6; sizes and flags follow acceptance criterion 6 and the
# sixteen-class fixture.
SWEEP_POSETS = {4: (16, 23, True, None), 5: (None, None, False, True), 6: (None, None, None, False)}

# Canonical labels of elements(20, 10), recorded with the CLI digests above;
# the op count of label-lattice must not shrink with them.
PAIR_LABELS = 82
MEET_JOIN_SAMPLE = 300


@dataclass
class Verdict:
    ops: int
    failed_ops: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)


def hook_length_count(lam: tuple[int, ...]) -> int:
    """Standard Young tableaux of straight shape lam, by the hook-length formula."""
    cols = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return factorial(sum(lam)) // hooks


def skew_count(outer: tuple[int, ...], inner: tuple[int, ...]) -> int:
    """Standard fillings of outer/inner by Aitken's determinant.

    f = n! det[1 / (outer_i - inner_j - i + j)!], with 1/k! = 0 for k < 0,
    evaluated exactly over the rationals.
    """
    size = len(outer)
    mu = inner + (0,) * (size - len(inner))
    m = [
        [
            Fraction(1, factorial(outer[i] - mu[j] - i + j))
            if outer[i] - mu[j] - i + j >= 0
            else Fraction(0)
            for j in range(size)
        ]
        for i in range(size)
    ]
    det = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, size):
            if m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(det * factorial(sum(outer) - sum(inner)))


def _check_expand_stream(data: dict, out: list) -> Verdict:
    stream = data["stream"]
    verdict = Verdict(len(stream))
    if len(out) != len(stream):
        verdict.problems.append(f"{len(out)} expansions for {len(stream)} calls")
        verdict.failed_ops.update(range(len(stream)))
        return verdict
    skew: dict = {}
    straight: dict = {}
    for i, ((kind, (outer, inner), source), terms) in enumerate(zip(stream, out)):
        if terms is None:
            verdict.failed_ops.add(i)
            continue
        size = sum(outer) - sum(inner)
        parts = [tuple(p) for p, _ in terms]
        if any(sum(p) != size or c < 1 for p, (_, c) in zip(parts, terms)):
            verdict.failed_ops.add(i)
            continue
        total = 0
        for p, (_, c) in zip(parts, terms):
            if p not in straight:
                straight[p] = hook_length_count(p)
            total += c * straight[p]
        if (outer, inner) not in skew:
            skew[outer, inner] = skew_count(outer, inner)
        if total != skew[outer, inner]:
            verdict.failed_ops.add(i)
            continue
        if source is None or out[source] is None:
            continue
        expected = out[source]
        if kind == "transpose":
            expected = sorted(
                ([list(conjugate(tuple(p))), c] for p, c in expected), reverse=True
            )
        if terms != expected:
            verdict.failed_ops.add(i)
    return verdict


def _check_ribbon_poset(data: dict, out: list) -> Verdict:
    # One op is one class pair ordered; the pair count follows from the
    # class counts, which the recorded output fixes.
    verdict = Verdict(sum(c * (c - 1) // 2 for c, _ in POSET_COUNTS))
    start = 0
    for run, (argv, digest, (classes, edges)) in enumerate(
        zip(data["argvs"], POSET_STDOUT_SHA256, POSET_COUNTS)
    ):
        pairs = range(start, start + classes * (classes - 1) // 2)
        start = pairs.stop
        code, text = out[run]
        got = hashlib.sha256(text.encode()).hexdigest()
        if argv[-1] == "json":
            try:
                payload = json.loads(text)
            except json.JSONDecodeError:
                payload = {}
            counts = (len(payload.get("classes", ())), len(payload.get("hasse", ())))
        else:
            lines = text.splitlines()
            counts = (
                sum(1 for line in lines if "[label=" in line),
                sum(1 for line in lines if " -> " in line),
            )
        if code != 0 or got != digest or counts != (classes, edges):
            verdict.failed_ops.update(pairs)
            verdict.problems.append(
                f"'{' '.join(argv)}': exit {code}, {counts[0]} classes and "
                f"{counts[1]} edges (want {classes}/{edges}), stdout sha256 {got[:12]}"
            )
    return verdict


def _check_label_lattice(data: dict, out: dict, seed: int) -> Verdict:
    labels = [tuple(x) for x in out["elements"]]
    size = len(labels)
    pairs = out["pairs"]
    verdict = Verdict(size * size)
    if size != PAIR_LABELS:
        verdict.problems.append(f"elements{tuple(data['pairs'])} has {size} labels, want {PAIR_LABELS}")
    if len(pairs) != size * size:
        verdict.problems.append(f"{len(pairs)} pair results for {size} labels")
        verdict.failed_ops.update(range(size * size))
        return verdict

    n, _ = data["trim"]
    trim = out["trim"]
    if trim is None:
        verdict.problems.append("trim_report raised")
    else:
        join_irr, meet_irr, longest, lm_chain = trim[:4]
        # Acceptance criterion 9 off the degenerate row counts.
        if not (join_irr == n - 3 and meet_irr == join_irr and longest == join_irr + 1 and lm_chain):
            verdict.problems.append(f"trim_report{tuple(data['trim'])} breaks the trim identities: {trim}")

    leq = [[False] * size for _ in range(size)]
    for k, result in enumerate(pairs):
        if result is None:
            verdict.failed_ops.add(k)
        else:
            leq[k // size][k % size] = bool(result[0])
    for i in range(size):
        if not leq[i][i]:
            verdict.problems.append(f"{labels[i]} is not below itself")
        for j in range(size):
            if i != j and leq[i][j] and leq[j][i]:
                verdict.problems.append(f"{labels[i]} and {labels[j]} are below each other")
    up = [{j for j in range(size) if leq[i][j]} for i in range(size)]
    for i in range(size):
        for j in up[i]:
            if not up[j] <= up[i]:
                verdict.problems.append(f"order is not transitive at {labels[i]} <= {labels[j]}")
    reduction = {
        (labels[i], labels[j])
        for i in range(size)
        for j in up[i]
        if i != j and not any(k != i and k != j and j in up[k] for k in up[i])
    }
    got = {(tuple(lo), tuple(hi)) for lo, hi in out["covers"]}
    if got != reduction:
        verdict.problems.append(
            f"covers{tuple(data['pairs'])} differs from the reduction of leq_s_closed: "
            f"{len(got)} vs {len(reduction)} edges"
        )

    for k, result in enumerate(pairs):
        if result is None:
            continue
        i, j = divmod(k, size)
        _, lo, hi = result
        if not (0 <= lo < size and 0 <= hi < size):
            verdict.failed_ops.add(k)
        elif not (leq[lo][i] and leq[lo][j] and leq[i][hi] and leq[j][hi]):
            verdict.failed_ops.add(k)
    rng = random.Random(seed)
    for k in rng.sample(range(size * size), min(MEET_JOIN_SAMPLE, size * size)):
        if pairs[k] is None or k in verdict.failed_ops:
            continue
        i, j = divmod(k, size)
        lower = [z for z in range(size) if leq[z][i] and leq[z][j]]
        upper = [z for z in range(size) if leq[i][z] and leq[j][z]]
        glb = [z for z in lower if all(leq[w][z] for w in lower)]
        lub = [z for z in upper if all(leq[z][w] for w in upper)]
        if glb != [pairs[k][1]] or lub != [pairs[k][2]]:
            verdict.failed_ops.add(k)
    return verdict


def _check_verify_sweeps(out: dict) -> Verdict:
    verdict = Verdict(sum(SWEEP_INSTANCES.values()))
    start = 0
    for name, want in SWEEP_INSTANCES.items():
        reports = [r for r in out["reports"] if r[0] == name]
        checked = sum(r[1] for r in reports if r[1] is not None)
        wrong = sum(r[2] for r in reports if r[1] is not None)
        raised = sum(1 for r in reports if r[1] is None)
        # Ops a sweep did not reach count as failed, as do disagreements.
        missing = max(0, want - checked) + min(wrong, want)
        verdict.failed_ops.update(range(start, start + min(missing, want)))
        if checked != want or wrong or raised:
            verdict.problems.append(
                f"verify_{name}: {checked} instances (want {want}), "
                f"{wrong} disagreements, {raised} calls raised"
            )
        start += want
    for n, classes, edges, graded, join in out["posets"]:
        want = SWEEP_POSETS[n]
        got = (classes, edges, graded, join)
        if any(w is not None and w != g for w, g in zip(want, got)):
            verdict.problems.append(f"basic-shape poset of size {n}: got {got}, want {want}")
    return verdict


def check(workload: str, data: dict, out, seed: int) -> Verdict:
    if workload == "expand-stream":
        return _check_expand_stream(data, out)
    if workload == "ribbon-poset":
        return _check_ribbon_poset(data, out)
    if workload == "label-lattice":
        return _check_label_lattice(data, out, seed)
    return _check_verify_sweeps(out)
