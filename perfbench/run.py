"""schurpos benchmark: cold-process samples of four workloads.

    python3 perfbench/run.py --workload expand-stream --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py            # every workload, default seed and length

Every sample runs in a fresh interpreter that imports schurpos from this
checkout's src/, so every cache starts cold. With --trace 0 the run reports
the end-to-end metrics; with --trace 1 it also runs two traced samples and
reports per-layer metrics. Outputs are checked against oracles that do not
use the expansion engine; a failed check makes the exit code non-zero. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
from tracer import LAYERS, METRICS as LAYER_METRICS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MiB"),
)
# Per-layer metrics in these units must repeat exactly between traced samples.
EXACT_UNITS = ("count", "B", "ratio")
MIN_SAMPLES = 3
MIN_UNTRACED_WITH_TRACE = 2
TRACED_SAMPLES = 2
# A traced sample takes up to about this many untraced samples' time.
TRACED_COST = 1.5
# Set-up is short and noisy, so extra set-up-only children top the
# set-up samples up to this many per run.
SETUP_SAMPLES = 11
# A run must end well within three minutes whatever --seconds says.
DEADLINE_S = 170


class BenchError(Exception):
    """A child failed to run or reported something unreadable."""


def _child(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    started = time.monotonic()
    cmd = [
        sys.executable, "-I", str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--started", repr(started), *flags,
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(1.0, deadline - started)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} sample did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload} sample printed no result") from None
    result["spawn_s"] = time.monotonic() - started
    return result


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_sha256() -> str:
    """Digest of the package sources, which names the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _metadata(workload: str, seed: int, seconds: int, trace: bool, data: dict) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": cpus,
        "loadavg": list(os.getloadavg()),
        "input_sizes": inputs.sizes(workload, data),
    }


class Run:
    """Samples of one workload, checked as they arrive."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.data = inputs.make(workload, seed)
        self.samples: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._checked_out = None
        self._checked = None
        self._setups: list[float] | None = None

    def _check(self, result: dict) -> None:
        out = result.pop("out")
        if self._checked is None:
            verdict = oracle.check(self.workload, self.data, out, self.seed)
            self._checked_out, self._checked = out, verdict
        elif out != self._checked_out:
            verdict = oracle.check(self.workload, self.data, out, self.seed)
            verdict.problems.append("a sample's outputs differ from the first sample's")
        else:
            verdict = self._checked
        self.attempted += verdict.ops
        self.failed += len(verdict.failed_ops)
        for problem in verdict.problems:
            if problem not in self.problems:
                self.problems.append(problem)
        result["ops"] = verdict.ops

    def sample(self, *flags: str) -> dict:
        result = _child(self.workload, self.seed, self.deadline, *flags)
        self._check(result)
        return result

    def timed(self, budget: float, minimum: int, traced_after: int = 0) -> None:
        """Untraced samples until the next would overrun the budget.

        Room is kept for traced_after traced samples, each taken to cost
        TRACED_COST untraced ones.
        """
        spent = 0.0
        while True:
            result = self.sample()
            self.samples.append(result)
            spent += result["spawn_s"]
            estimate = statistics.median(s["spawn_s"] for s in self.samples)
            reserve = traced_after * TRACED_COST * estimate
            if len(self.samples) >= minimum and spent + estimate + reserve > budget:
                return

    def setups(self) -> list[float]:
        if self._setups is None:
            values = [s["setup_s"] for s in self.samples + self.traced]
            while len(values) < SETUP_SAMPLES:
                values.append(
                    _child(self.workload, self.seed, self.deadline, "--setup-only")["setup_s"]
                )
            self._setups = values
        return self._setups

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setups()),
            "wall_s": statistics.median(s["wall_s"] for s in self.samples),
            "ops_per_s": statistics.median(s["ops"] / s["wall_s"] for s in self.samples),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in self.samples),
        }

    def op_latency(self) -> dict[str, float]:
        """Per-op latency percentiles, for workloads whose op is one call."""
        per_sample = [
            statistics.quantiles(s["latencies"], n=100) for s in self.samples if s["latencies"]
        ]
        if not per_sample:
            return {}
        return {
            "op_p50_ms": 1e3 * statistics.median(q[49] for q in per_sample),
            "op_p99_ms": 1e3 * statistics.median(q[98] for q in per_sample),
            "op_count": len(self.samples[0]["latencies"]),
        }

    def trace(self) -> dict[str, float]:
        OUT_DIR.mkdir(exist_ok=True)
        for k in range(TRACED_SAMPLES):
            flags = ["--trace"]
            if k == 0:
                spans = OUT_DIR / f"spans-{self.workload}-seed{self.seed}.json"
                flags += ["--spans", str(spans)]
            self.traced.append(self.sample(*flags))
        metrics = {}
        differ = []
        for name, unit in LAYER_METRICS:
            values = [s["layers"][name] for s in self.traced]
            if unit in EXACT_UNITS:
                metrics[name] = values[0]
                if any(v != values[0] for v in values):
                    differ.append(name)
            else:
                metrics[name] = statistics.median(values)
        if differ:
            self.problems.append(f"traced samples disagree on counts: {', '.join(differ)}")
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
            s["wall_s"] for s in self.samples
        )
        return metrics

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    run = Run(workload, seed, deadline)
    meta = _metadata(workload, seed, seconds, trace, run.data)
    print(f"# {workload}: " + json.dumps(meta, separators=(",", ":")), flush=True)

    layers = {}
    if trace:
        run.timed(seconds, MIN_UNTRACED_WITH_TRACE, TRACED_SAMPLES)
        layers = run.trace()
    else:
        run.timed(seconds, MIN_SAMPLES)
    e2e = run.end_to_end()
    latency = run.op_latency()
    fail_ratio = run.failed / run.attempted if run.attempted else 1.0

    print(f"  samples {len(run.samples)} untraced, {len(run.traced)} traced; "
          f"{len(run.setups())} set-ups; {run.attempted} ops attempted, {run.failed} failed")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {_fmt(e2e[name]):>12} {unit}")
    if latency:
        print(f"  {'op_p50_ms':<14} {_fmt(latency['op_p50_ms']):>12} ms  (of {latency['op_count']} timed ops)")
        print(f"  {'op_p99_ms':<14} {_fmt(latency['op_p99_ms']):>12} ms")
    print(f"  {'fail_ratio':<14} {_fmt(fail_ratio):>12} ratio")
    for problem in run.problems[:20]:
        print(f"  FAIL {problem}")

    if trace:
        traced_wall = layers["trace.wall_s"]
        print(f"  traced wall {_fmt(traced_wall)} s, tracing overhead {_fmt(layers['trace.overhead_s'])} s")
        print(f"  {'layer':<12} {'self_s':>10} {'share':>7} {'calls':>10}")
        for layer in LAYERS:
            self_s = statistics.median(s["layer_totals"][layer][0] for s in run.traced)
            calls = run.traced[0]["layer_totals"][layer][1]
            note = "  (counted, not timed)" if layer == "partitions" else ""
            print(f"  {layer:<12} {self_s:>10.4f} {self_s / traced_wall:>7.1%} {calls:>10}{note}")
        uncovered = layers["trace.uncovered_s"]
        print(f"  {'uncovered':<12} {uncovered:>10.4f} {uncovered / traced_wall:>7.1%}"
              "  (benchmark loop and calls outside any span)")
        for name, unit in LAYER_METRICS + (("trace.overhead_s", "s"),):
            print(f"  {name:<38} {_fmt(layers[name]):>12} {unit}")
        missing = run.traced[0].get("missing", [])
        if missing:
            print(f"  not found, reported as 0: {', '.join(missing)}")

    if trace:
        units = dict(LAYER_METRICS + (("trace.overhead_s", "s"),))
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "meta": meta,
        "result": result,
        "fail_ratio": fail_ratio,
        "op_latency": latency,
        "problems": run.problems,
        "samples": [
            {k: s[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "ops", "spawn_s")}
            for s in run.samples
        ],
        "elapsed_s": time.monotonic() - start,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=27,
                        help="sample time per workload; traced runs fit their traced samples in it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "schurpos" / "__init__.py").is_file():
        print(f"error: no schurpos package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }
    print(json.dumps(final, separators=(",", ":")))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
