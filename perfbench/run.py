"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-complete --seed 1 \\
        --seconds 10 --trace 0

The program under test is imported from the checkout's ``src/``; the
benchmark refuses to run (exit 2, no result) without it.  Stdout ends
with one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines
before it give every metric of the workload by name and unit, the host
and the settings.  Traced runs also write their spans as JSON lines to
``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("serve-complete", "clean-incomplete", "reopen-store")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics every workload reports -- the regression gate of
#: ``BENCHMARK.json``, in its order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("cpu_ms_per_op", "ms"),
    ("read_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: Metrics only some workloads issue the operations for; printed on
#: the detail line of the workloads that do.
WORKLOAD_ONLY: Tuple[Tuple[str, str], ...] = (
    ("register_p50_ms", "ms"),
    ("setup_peak_rss_mb", "MiB"),
    ("host_speed", "ratio"),
    ("failed_ratio", "ratio"),
    ("read_p90_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("outcome_read_p50_ms", "ms"),
    ("clean_p50_ms", "ms"),
    ("clean_p90_ms", "ms"),
    ("open_p50_ms", "ms"),
    ("readonly_open_p50_ms", "ms"),
    ("cli_p50_ms", "ms"),
    ("store_bytes_per_tuple", "B"),
    ("plan_improvement", "quality"),
)

#: Per-layer metrics of the traced run.  ``ms/op`` is self time summed
#: over the traced requests divided by their number; ``ms/call`` the
#: mean self time of one call; ``count/op`` calls or counter deltas per
#: traced request.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("service.self_ms", "ms/op"),
    ("pool.lease_wait_ms", "ms/call"),
    ("pool.hit_ratio", "ratio"),
    ("pool.psr_lookups", "count/op"),
    ("pool.register_ms", "ms/op"),
    ("pool.sweep_ms", "ms/op"),
    ("engine.cold_passes", "count/op"),
    ("engine.prefill_ms", "ms/op"),
    ("engine.derive_ms", "ms/op"),
    ("engine.delta_derives", "count/op"),
    ("engine.cold_derives", "count/op"),
    ("psr.cold_calls", "count/op"),
    ("psr.cold_ms", "ms/call"),
    ("psr.scan_ratio", "ratio"),
    ("psr.delta_calls", "count/op"),
    ("psr.delta_ms", "ms/call"),
    ("psr.delta_over_cold", "ratio"),
    ("tp.quality_ms", "ms/op"),
    ("tp.patch_ms", "ms/op"),
    ("cleaning.problem_ms", "ms/op"),
    ("cleaning.greedy_ms", "ms/op"),
    ("cleaning.dp_ms", "ms/op"),
    ("cleaning.execute_ms", "ms/op"),
    ("cleaning.adaptive_rounds", "count"),
    ("cleaning.probe_success_ratio", "ratio"),
    ("cleaning.probes_performed", "count/op"),
    ("db.rank_ms", "ms/op"),
    ("db.patch_ms", "ms/op"),
    ("db.hash_ms", "ms/op"),
    ("io.from_dict_ms", "ms/op"),
    ("store.open_ms", "ms/op"),
    ("store.decode_ms", "ms/op"),
    ("store.segments_opened", "count/op"),
    ("store.persist_ms", "ms/op"),
    ("store.encode_ms", "ms/op"),
    ("store.journal_ms", "ms/op"),
    ("store.checkpoint_ms", "ms/op"),
    ("store.gc_ms", "ms/op"),
    ("store.fsyncs_per_op", "count/op"),
    ("store.fsync_ms", "ms/call"),
    ("store.write_amplification", "ratio"),
    ("store.registered_mb", "MiB"),
    ("store.gc_unlinks", "count/op"),
    ("store.compactions", "count/op"),
    ("store.lock_wait_ms", "ms/op"),
    ("store.lock_waits", "count/op"),
    ("cli.import_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.traced_ops", "count"),
)

#: Span names whose summed self time is reported per traced request.
SELF_MS_PER_OP = {
    "pool.register_ms": ("pool.register",),
    "pool.sweep_ms": ("pool.sweep",),
    "engine.prefill_ms": ("engine.prefill",),
    "engine.derive_ms": ("engine.derive",),
    "tp.quality_ms": ("tp.quality",),
    "tp.patch_ms": ("tp.patch",),
    "cleaning.problem_ms": ("cleaning.problem",),
    "cleaning.greedy_ms": ("cleaning.greedy",),
    "cleaning.dp_ms": ("cleaning.dp",),
    "cleaning.execute_ms": ("cleaning.execute",),
    "db.rank_ms": ("db.rank",),
    "db.patch_ms": ("db.patch",),
    "db.hash_ms": ("db.hash",),
    "io.from_dict_ms": ("io.from_dict",),
    "store.open_ms": ("store.open",),
    "store.decode_ms": ("store.decode",),
    "store.persist_ms": ("store.persist",),
    "store.encode_ms": ("store.encode",),
    "store.journal_ms": ("store.journal",),
    "store.checkpoint_ms": ("store.checkpoint",),
    "store.gc_ms": ("store.gc",),
    "store.lock_wait_ms": ("store.lock_wait",),
}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> None:
    """Import the program from this checkout's ``src/`` or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        sys.exit(2)
    # The program runs at its defaults: no REPRO_* knob from the
    # caller's environment may select a backend, fault plan or limit.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # One client thread: numpy's BLAS must not take the second core,
    # which is left to the OS and the store's fsyncs.
    for key in BLAS_THREAD_VARS:
        os.environ[key] = "1"
    # numpy asks for transparent huge pages on large arrays; whether it
    # gets them depends on the host's free memory, which made
    # peak_rss_mb of one seed swing by 10 MiB between runs.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def end_to_end_metrics(
    meter: Any, workload: Any, setups: List[float], loop: Dict[str, float]
) -> Dict[str, float]:
    """End-to-end metrics, every time at reference host speed.

    Each time is scaled by its round's (or set-up's) host speed -- see
    ``measure.CALIBRATION_REFERENCE_S`` -- before it is summed
    (throughput, CPU) or enters a percentile (latencies).
    """
    from measure import percentile

    tallies = meter.tallies()
    completed = meter.completed()
    # Set-up registrations count only where the loop registers nothing.
    register = meter.latencies("register") or [
        ms * speed
        for samples, speed in zip(workload.register_ms, workload.setup_speed)
        for ms in samples
    ]
    reads = meter.latencies("read")
    metrics = {
        "setup_s": percentile(
            [s * speed for s, speed in zip(setups, workload.setup_speed)], 0.5
        ),
        "ops_per_s": meter.ops_per_s(),
        "cpu_ms_per_op": sum(t.cpu_s * speed for t, speed in tallies) * 1000.0 / completed,
        "read_p50_ms": percentile(reads, 0.5),
        "register_p50_ms": percentile(register, 0.5),
        "host_speed": percentile([speed for _, speed in tallies], 0.5),
        "failed_ratio": meter.failed / max(meter.attempted, 1),
        "read_p90_ms": percentile(reads, 0.9),
    }
    if len(reads) >= 1000:
        metrics["read_p99_ms"] = percentile(reads, 0.99)
    for kind, name in (
        ("outcome_read", "outcome_read_p50_ms"),
        ("clean", "clean_p50_ms"),
        ("open", "open_p50_ms"),
        ("readonly_open", "readonly_open_p50_ms"),
        ("cli", "cli_p50_ms"),
    ):
        if meter.latencies(kind):
            metrics[name] = percentile(meter.latencies(kind), 0.5)
    if meter.latencies("clean"):
        metrics["clean_p90_ms"] = percentile(meter.latencies("clean"), 0.9)
    metrics.update(loop)
    return metrics


def layer_metrics(meter: Any, workload: Any, recorder: Any) -> Dict[str, float]:
    """Per-layer metrics from the spans and envelopes of traced rounds."""
    summary = recorder.summary()
    ops = max(meter.completed(traced=True), 1)

    def calls(name: str) -> int:
        return int(summary.get(name, {}).get("calls", 0))

    def self_ms(*names: str) -> float:
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names) * 1000.0

    def envelope(counter: str) -> int:
        return sum(e.get(counter, 0) for e in meter.envelopes)

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in recorder.spans if s.name == name)

    def per_call(name: str) -> float:
        return self_ms(name) / calls(name) if calls(name) else 0.0

    hits, misses = envelope("psr_hits"), envelope("psr_misses")
    cold_ms, delta_ms = per_call("psr.cold"), per_call("psr.delta")
    registered = sum(attr_sum(n, "tuple_bytes") for n in ("pool.register",))
    written = attr_sum("store.encode", "bytes") + attr_sum("store.journal", "bytes")
    cleaning = (
        workload.cleaning_stats()
        if hasattr(workload, "cleaning_stats")
        else {"adaptive_rounds": 0.0, "probes_performed": 0, "probes_succeeded": 0}
    )
    service_spans = [n for n in summary if n.startswith("service.")]
    metrics = {
        "service.self_ms": self_ms(*service_spans) / ops,
        "pool.lease_wait_ms": per_call("pool.lease"),
        "pool.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "pool.psr_lookups": (hits + misses) / ops,
        "engine.cold_passes": misses / ops,
        "engine.delta_derives": envelope("delta_derives") / ops,
        "engine.cold_derives": envelope("cold_derives") / ops,
        "psr.cold_calls": calls("psr.cold") / ops,
        "psr.cold_ms": cold_ms,
        "psr.scan_ratio": (
            attr_sum("psr.cold", "scan_ratio") / calls("psr.cold")
            if calls("psr.cold")
            else 0.0
        ),
        "psr.delta_calls": calls("psr.delta") / ops,
        "psr.delta_ms": delta_ms,
        "psr.delta_over_cold": delta_ms / cold_ms if cold_ms and delta_ms else 0.0,
        "cleaning.adaptive_rounds": cleaning["adaptive_rounds"],
        "cleaning.probe_success_ratio": (
            cleaning["probes_succeeded"] / cleaning["probes_performed"]
            if cleaning["probes_performed"]
            else 0.0
        ),
        "cleaning.probes_performed": cleaning["probes_performed"] / ops,
        "store.segments_opened": calls("store.decode") / ops,
        "store.fsyncs_per_op": calls("os.fsync") / ops,
        "store.fsync_ms": per_call("os.fsync"),
        "store.write_amplification": written / registered if registered else 0.0,
        "store.registered_mb": registered / 2**20,
        "store.gc_unlinks": envelope("psr_store_gc_unlinks") / ops,
        "store.compactions": envelope("psr_store_compactions") / ops,
        "store.lock_waits": attr_sum("store.lock_wait", "waited") / ops,
        "cli.import_ms": (
            workload.cli_import_ms() if hasattr(workload, "cli_import_ms") else 0.0
        ),
        "trace.overhead_ratio": (
            meter.ops_per_s(True) / meter.ops_per_s(False)
            if meter.ops_per_s(False)
            else 0.0
        ),
        "trace.untraced_ops_per_s": meter.ops_per_s(False),
        "trace.traced_ops": meter.completed(traced=True),
    }
    for metric, names in SELF_MS_PER_OP.items():
        metrics[metric] = self_ms(*names) / ops
    return metrics


def run(
    name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0
) -> Dict[str, Any]:
    """One run of a workload; returns the result record."""
    from measure import Meter, host_record, peak_rss_mb
    from spans import Recorder
    from workloads import WORKLOADS

    work = ROOT / ".perfbench" / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, seconds, work, scale)
        workload.generate()
        setups = [workload.set_up(i) for i in range(workload.setups)]
        setup_rss = peak_rss_mb()
        meter = Meter(
            workload.round_units, Recorder() if trace else None, workload.trace_units
        )
        workload.run(meter)
        meter.finish()
        loop = {"peak_rss_mb": peak_rss_mb(), "setup_peak_rss_mb": setup_rss}
        loop.update(workload.end_of_loop())
        workload.gate(meter)
        if trace:
            metrics = layer_metrics(meter, workload, meter.recorder)
            catalogue = PER_LAYER
            spans = ROOT / ".perfbench" / "spans" / f"{name}-seed{seed}.jsonl"
            meter.recorder.write(str(spans))
        else:
            metrics = end_to_end_metrics(meter, workload, setups, loop)
            catalogue = END_TO_END + WORKLOAD_ONLY
        return {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "host": host_record(),
            "settings": {
                "closed_loop_clients": 1,
                "kernel": "default (in-process)",
                "blas_threads": 1,
                "numpy_huge_pages": False,
                "units": workload.units,
                "setups": workload.setups,
                "scale": scale,
                **workload.settings,
            },
            "attempted": meter.attempted,
            "failed": meter.failed,
            "failures": meter.failures,
            "metrics": {
                key: {"value": metrics[key], "unit": unit}
                for key, unit in catalogue
                if key in metrics
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    started = time.perf_counter()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["wall_s"] = time.perf_counter() - started
    for key, metric in record["metrics"].items():
        print(f"{args.workload} {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps(result_line(record)))
    return 0


def result_line(record: Dict[str, Any]) -> Dict[str, Any]:
    """The last stdout line: the metrics ``BENCHMARK.json`` declares."""
    reported = PER_LAYER if record["trace"] else END_TO_END
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {key: record["metrics"][key] for key, _ in reported},
    }


if __name__ == "__main__":
    sys.exit(main())
