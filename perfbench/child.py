"""One benchmark sample, run in a fresh interpreter by run.py.

The child imports schurpos from the checkout's src/, builds the workload's
inputs, times the workload's section, and prints one JSON line: set-up time,
wall time, peak RSS, per-op latencies where ops are single calls, the
outputs for the parent's checks and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _peak_rss_mb() -> float:
    """Peak RSS of this process in MiB.

    Linux keeps getrusage's ru_maxrss across exec, so a child would report
    its parent's RSS at fork when that is larger; VmHWM belongs to the new
    address space alone.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _prepare(workload: str, data: dict, schurpos) -> object:
    """Turn plain inputs into the library objects the timed section uses."""
    if workload == "expand-stream":
        return [schurpos.SkewDiagram(outer, inner) for _, (outer, inner), _ in data["stream"]]
    return data


def _ribbon_poset(data: dict, tracer) -> tuple[list, list]:
    import schurpos.cli

    out = []
    for op, argv in enumerate(data["argvs"]):
        if tracer is not None:
            tracer.op = op
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = schurpos.cli.main(argv)
            except Exception:
                code = None
        out.append([code, buf.getvalue()])
    return out, []


def _expand_stream(diagrams: list, tracer) -> tuple[list, list]:
    import schurpos

    expand = schurpos.expand
    clock = time.perf_counter
    vecs = []
    latencies = []
    for op, diagram in enumerate(diagrams):
        if tracer is not None:
            tracer.op = op
        start = clock()
        try:
            vec = expand(diagram)
        except Exception:
            vec = None
        latencies.append(clock() - start)
        vecs.append(vec)
    return vecs, latencies


def _label_lattice(data: dict, tracer) -> tuple[dict, list]:
    import schurpos

    try:
        trim = schurpos.trim_report(*data["trim"])
    except Exception:
        trim = None
    edges = schurpos.covers(*data["pairs"])
    labels = schurpos.elements(*data["pairs"])
    leq, meet, join = schurpos.leq_s_closed, schurpos.meet, schurpos.join
    results = []
    for op, (x, y) in enumerate((x, y) for x in labels for y in labels):
        if tracer is not None:
            tracer.op = op
        try:
            results.append((leq(x, y), meet(x, y), join(x, y)))
        except Exception:
            results.append(None)
    return (trim, edges, labels, results), []


def _verify_sweeps(data: dict, tracer) -> tuple[dict, list]:
    import schurpos

    calls = [
        ("fourcovers", schurpos.verify_fourcovers, (data["sweep_bound"],)),
        ("onlycovers", schurpos.verify_onlycovers, (data["sweep_bound"],)),
        *(("bigdiff", schurpos.verify_bigdiff, tuple(ctx)) for ctx in data["bigdiff"]),
        ("mflemma", schurpos.verify_mflemma, (data["mflemma_bound"],)),
    ]
    reports = []
    for op, (name, fn, args) in enumerate(calls):
        if tracer is not None:
            tracer.op = op
        try:
            report = fn(*args)
            reports.append([name, report.checked, len(report.disagreements)])
        except Exception:
            reports.append([name, None, None])
    posets = []
    for n in data["posets"]:
        model = schurpos.build_poset(schurpos.enumerate_basic_skew(n))
        posets.append([
            n,
            len(model),
            len(model.hasse),
            schurpos.check_graded(model),
            schurpos.check_join_semilattice(model),
        ])
    return {"reports": reports, "posets": posets}, []


def _serialize(workload: str, raw):
    """Library results as JSON data for the parent's checks."""
    if workload == "expand-stream":
        return [None if v is None else [[list(p), c] for p, c in v.items()] for v in raw]
    if workload == "label-lattice":
        trim, edges, labels, results = raw
        index = {(z.a, z.b): k for k, z in enumerate(labels)}
        return {
            "trim": None if trim is None else [
                trim.join_irreducibles,
                trim.meet_irreducibles,
                trim.longest_chain_elements,
                trim.left_modular_max_chain,
                trim.spine_left_modular,
                trim.spine_distributive,
            ],
            "covers": [[[lo.a, lo.b], [hi.a, hi.b]] for lo, hi in edges],
            "elements": [[z.a, z.b] for z in labels],
            "pairs": [
                None if r is None
                else [r[0], index.get((r[1].a, r[1].b), -1), index.get((r[2].a, r[2].b), -1)]
                for r in results
            ],
        }
    return raw


WORKLOADS = {
    "ribbon-poset": _ribbon_poset,
    "expand-stream": _expand_stream,
    "label-lattice": _label_lattice,
    "verify-sweeps": _verify_sweeps,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent spawned this child")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the spans of a traced run here")
    args = parser.parse_args()

    sys.path[:0] = [str(SRC), str(HERE)]
    import schurpos
    import schurpos.cli

    if not Path(schurpos.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"schurpos imported from {schurpos.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import inputs

    data = inputs.make(args.workload, args.seed)
    prepared = _prepare(args.workload, data, schurpos)
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    run = WORKLOADS[args.workload]
    start = time.perf_counter()
    raw, latencies = run(prepared, tracer)
    wall_s = time.perf_counter() - start
    peak_rss_mb = _peak_rss_mb()
    out = _serialize(args.workload, raw)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies": latencies,
        "out": out,
    }
    if tracer is not None:
        output_bytes = sum(len(text.encode()) for _, text in out) if args.workload == "ribbon-poset" else 0
        result["layers"] = tracer.metrics(wall_s, output_bytes)
        result["layer_totals"] = tracer.layer_totals()
        result["missing"] = tracer.missing
        if args.spans:
            tracer.dump(args.spans, start)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
