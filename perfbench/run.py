"""Benchmark of idop: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout (idop is imported from its `src/`):

    python3 perfbench/run.py --workload filtration|powers|checks \
        --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop: a single thread runs one
operation at a time and starts the next only when the previous one has
finished.  The loop repeats jobs (fixed lists of seeded operations, see
workloads.py) for S seconds of operations and speed probes, checks every
output, and prints one JSON object as the last line of stdout; a report for
people goes to stderr.

With --trace 0 it reports the end-to-end metrics.  With --trace 1 it runs the
workload for S/2 seconds untraced and S/2 seconds with span wrappers on
idop's layers (tracer.py), checks that both give identical outputs, and
reports the per-layer metrics.  Times are in reference seconds (speed.py).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
import types

from speed import InOpSampler, SpeedMeter
from tracer import SPAN_NAMES, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench", "trace")

LAYER_MODULES = ("hpoly", "element", "tensor", "oracle", "structure", "expr")
SETUP_REPEATS = 7
# Operations shorter than this share one pair of speed probes with their
# neighbours; the host holds one speed for about this long or longer.
PROBE_GAP_S = 0.01

PER_LAYER = (
    [f"{name}.{stat}" for name in SPAN_NAMES for stat in ("calls", "self_s")]
    + [
        "element.Element1.mul.terms_out",
        "tensor.ElementN.mul.terms_out",
        "element.atom_mul.repeat_ratio",
        "oracle.RowReducer.add.kept_ratio",
        "oracle.RowReducer.add.max_bits",
        "coeff.max_bits",
        "trace.job_s",
        "trace.unwrapped_s",
        "trace.overhead_ratio",
    ]
)


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib"):
        return "MiB"
    if metric.endswith("_bits"):
        return "bits"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


class SourceMissing(RuntimeError):
    pass


def load_idop() -> types.SimpleNamespace:
    """Import idop afresh from the checkout's src/ and return its layer modules."""
    if not os.path.isfile(os.path.join(SRC, "idop", "__init__.py")):
        raise SourceMissing(f"no idop sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "idop" or m.startswith("idop.")]:
        del sys.modules[name]
    pkg = importlib.import_module("idop")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise SourceMissing(f"idop was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"idop.{m}") for m in LAYER_MODULES}
    )


class Phase:
    """The record of one closed-loop phase: raw op intervals and checked outputs."""

    def __init__(self):
        self.intervals: list = []  # (job, t0, t1) per operation, in order
        self.fingerprints: list = []  # per job, per operation
        self.attempted = 0
        self.failed = 0
        self.first_error = ""
        self.job_counters: list = []  # traced phases only
        self.factors: list = []  # reference seconds per raw second, per operation
        self.durations: list = []  # raw seconds per operation, in-op probes taken out

    def op_times(self) -> list:
        return [d * f for d, f in zip(self.durations, self.factors)]

    def job_times(self) -> list:
        totals: dict = {}
        for (j, _, _), t in zip(self.intervals, self.op_times()):
            totals[j] = totals.get(j, 0.0) + t
        return [totals[j] for j in sorted(totals)]


def run_job(wl, j: int, phase: Phase, meter: SpeedMeter, sampler, lib, tracer) -> float:
    """Run and then check job j; return the time its operations and probes took."""
    job_start = time.perf_counter()
    outs = []
    if tracer is not None:
        tracer.reset_job()
        tracer.install(lib)
    try:
        for op in wl.ops(j):
            if tracer is not None:
                tracer.current_op = len(phase.intervals)
            if sampler is not None:
                sampler.arm()
            t0 = time.perf_counter()
            try:
                out, err = op(), None
            except Exception:  # a failed operation is counted, not fatal
                out, err = None, traceback.format_exc()
            t1 = time.perf_counter()
            if sampler is not None:
                sampler.disarm()
            phase.intervals.append((j, t0, t1))
            outs.append((out, err))
            if t1 - meter.last_end >= PROBE_GAP_S:
                meter.probe()
    finally:
        if tracer is not None:
            tracer.uninstall()
    meter.probe()
    spent = time.perf_counter() - job_start
    if tracer is not None:
        phase.job_counters.append(
            {
                "terms_out": dict(tracer.terms_out),
                "max_bits": tracer.max_bits,
                "kept": tracer.kept,
                "pair_repeats": tracer.pair_repeats,
                "reducer_max_bits": tracer.reducer_max_bits(),
            }
        )
    fps = []
    for k, (out, err) in enumerate(outs):
        phase.attempted += 1
        ok = False
        if err is None:
            try:
                ok = wl.check(j, k, out)
            except Exception:
                err = traceback.format_exc()
        if not ok:
            phase.failed += 1
            if not phase.first_error:
                phase.first_error = err or f"job {j} operation {k}: wrong output"
        fps.append(wl.fingerprint(out) if err is None else None)
    phase.fingerprints.append(fps)
    return spent


def run_phase(wl, seconds: float, start: int = 0, lib=None, tracer=None) -> Phase:
    """Run whole jobs from job `start` on for `seconds` of operations and
    speed probes (at least one job), and check each output between jobs."""
    phase = Phase()
    meter = SpeedMeter()
    # In-op samples would land inside spans, so traced phases use only the
    # probes between operations.
    sampler = InOpSampler() if tracer is None else None
    meter.probe()
    with sampler or contextlib.nullcontext():
        j = start
        measured = 0.0
        while j == start or measured < seconds:
            measured += run_job(wl, j, phase, meter, sampler, lib, tracer)
            j += 1
    for _, t0, t1 in phase.intervals:
        inside, probing = sampler.within(t0, t1) if sampler is not None else ([], 0.0)
        speeds = inside + [meter.factor_at(t0, t1)] * 2
        phase.factors.append(sum(speeds) / len(speeds))
        phase.durations.append(t1 - t0 - probing)
    return phase


def setup(name: str, seed: int, tiny: bool, corrupt: bool):
    """Import idop and generate the inputs SETUP_REPEATS times; keep the last."""
    meter = SpeedMeter()
    spans = []
    for _ in range(SETUP_REPEATS):
        meter.probe()
        t0 = time.perf_counter()
        lib = load_idop()
        wl = WORKLOADS[name](lib, seed, tiny=tiny, corrupt=corrupt)
        t1 = time.perf_counter()
        spans.append((t0, t1))
    meter.probe()
    setup_s = statistics.median((t1 - t0) * meter.factor_at(t0, t1) for t0, t1 in spans)
    return lib, wl, setup_s


def _p99(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def end_to_end(phase: Phase, setup_s: float) -> dict:
    ops_ms = [t * 1000 for t in phase.op_times()]
    return {
        "wall_s": statistics.median(phase.job_times()),
        "op_p50_ms": statistics.median(ops_ms),
        "op_p99_ms": _p99(ops_ms),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(traced: Phase, untraced: Phase, tracer: Tracer) -> dict:
    jobs = len(traced.job_counters)
    out = {}
    totals = tracer.totals(traced.factors)
    for name in SPAN_NAMES:
        calls, self_s = totals[name]
        out[f"{name}.calls"] = calls / jobs
        out[f"{name}.self_s"] = self_s / jobs
    counters = traced.job_counters
    for name in ("element.Element1.mul", "tensor.ElementN.mul"):
        out[f"{name}.terms_out"] = sum(c["terms_out"][name] for c in counters) / jobs
    atom_calls = totals["element.atom_mul"][0]
    out["element.atom_mul.repeat_ratio"] = (
        sum(c["pair_repeats"] for c in counters) / atom_calls if atom_calls else 0.0
    )
    adds = totals["oracle.RowReducer.add"][0]
    out["oracle.RowReducer.add.kept_ratio"] = (
        sum(c["kept"] for c in counters) / adds if adds else 0.0
    )
    out["oracle.RowReducer.add.max_bits"] = max(c["reducer_max_bits"] for c in counters)
    out["coeff.max_bits"] = max(c["max_bits"] for c in counters)
    job_times = traced.job_times()
    out["trace.job_s"] = sum(job_times) / jobs
    covered = tracer.top_level_time(traced.factors)
    out["trace.unwrapped_s"] = (sum(job_times) - covered) / jobs
    # over the jobs both phases ran, so that both time the same inputs
    shared = min(len(job_times), len(untraced.job_times()))
    out["trace.overhead_ratio"] = sum(job_times[:shared]) / sum(untraced.job_times()[:shared])
    return {name: out[name] for name in PER_LAYER}


def run(name: str, seed: int, seconds: float, trace: bool, tiny=False, corrupt=False, log=sys.stderr):
    """Run one workload and return the result object printed by main()."""
    lib, wl, setup_s = setup(name, seed, tiny, corrupt)
    # One untimed job on the last pool entry first: the first job of a process
    # runs up to 1.6x slower while the allocator and the collector's
    # thresholds settle.  Its outputs are still checked and counted.
    warm = run_phase(wl, 0, start=len(wl.pool) - 1)
    if not trace:
        phase = run_phase(wl, seconds)
        metrics = end_to_end(phase, setup_s)
        attempted = warm.attempted + phase.attempted
        failed = warm.failed + phase.failed
        first_error = warm.first_error or phase.first_error
        print(
            f"{name} seed={seed}: {len(phase.job_times())} jobs; op_p50_ms and op_p99_ms "
            f"over {len(phase.intervals)} operations; fail_ratio={failed / attempted:.4g}",
            file=log,
        )
    else:
        untraced = run_phase(wl, seconds / 2)
        tracer = Tracer()
        traced = run_phase(wl, seconds / 2, lib=lib, tracer=tracer)
        metrics = per_layer(traced, untraced, tracer)
        attempted = warm.attempted + untraced.attempted + traced.attempted
        failed = warm.failed + untraced.failed + traced.failed
        first_error = warm.first_error or untraced.first_error or traced.first_error
        shared = min(len(untraced.fingerprints), len(traced.fingerprints))
        mismatched = sum(
            a != b
            for j in range(shared)
            for a, b in zip(untraced.fingerprints[j], traced.fingerprints[j])
        )
        failed += mismatched
        if mismatched and not first_error:
            first_error = f"{mismatched} traced outputs differ from the untraced run"
        print(
            f"{name} seed={seed}: traced {len(traced.job_times())} jobs / "
            f"{len(tracer.name)} spans, untraced {len(untraced.job_times())} jobs; "
            f"{shared} jobs compared, {mismatched} outputs differ; "
            f"fail_ratio={failed / attempted:.4g}",
            file=log,
        )
        for expectation, holds in wl.layer_split(metrics):
            print(f"layer split: {'ok' if holds else 'NOT MET'}: {expectation}", file=log)
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"{name}-seed{seed}.tsv.gz")
        tracer.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}", file=log)
    if first_error:
        print(f"first failure:\n{first_error}", file=log)
    for metric, value in metrics.items():
        print(f"  {metric} = {value:.6g} {unit_of(metric)}", file=log)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
