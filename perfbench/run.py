"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_open_m10k --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the workload once untraced and once with layer wrappers installed,
and reports per-layer self time and counts, the share of timed wall time
the layer spans cover, and the tracing overhead.  Every run checks its
outputs and prints, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a failed check also
makes the exit code 1.  ``--selftest`` runs every workload at a reduced
size in its own process and checks the report's shape against
``BENCHMARK.json``.

Values that must repeat for one seed (schedules, repair counters, call
counts, slot counts, audit results) are compared across the repeats
inside a run and against earlier runs of the same seed and code, which
are recorded under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

#: End-to-end metrics: name -> unit.
E2E = {
    "setup_s": "s",
    "admit_p50_ms": "ms",
    "events_per_s": "1/s",
    "recover_s": "s",
    "plan_s": "s",
    "worst_affectance": "ratio",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics of the traced run: name -> unit.
LAYERS = {
    "cells.far_field_s": "s",
    "cells.far_field_calls": "count",
    "cells.query_s": "s",
    "cells.query_calls": "count",
    "cells.pairs": "count",
    "affectance_sparse.build_self_s": "s",
    "affectance_sparse.nnz": "count",
    "affectance_sparse.radius": "length",
    "metricity.s": "s",
    "metricity.nodes": "count",
    "affectance.matrix_s": "s",
    "context.init_s": "s",
    "context.first_fit_s": "s",
    "context.repeated_capacity_s": "s",
    "context.plan_slots": "count",
    "context.add_links_s": "s",
    "context.add_links_calls": "count",
    "context.links_added": "count",
    "context.remove_links_s": "s",
    "context.remove_links_calls": "count",
    "dynamics.feed_self_s": "s",
    "repair.anchor_s": "s",
    "repair.apply_s": "s",
    "repair.apply_calls": "count",
    "repair.placements": "count",
    "repair.opened": "count",
    "repair.evictions": "count",
    "repair.deferred": "count",
    "repair.compactions": "count",
    "repair.merged": "count",
    "repair.open_ratio": "ratio",
    "repair.slot_count": "count",
    "daemon.self_s": "s",
    "daemon.service_ms_p50": "ms",
    "daemon.service_ms_p99": "ms",
    "daemon.queue_wait_ms_p50": "ms",
    "daemon.queue_wait_ms_p99": "ms",
    "daemon.flushes": "count",
    "daemon.events_per_flush": "count",
    "io.checkpoint_s": "s",
    "io.checkpoint_bytes": "bytes",
    "io.restore_self_s": "s",
    "loadgen.admit_p95_ms": "ms",
    "loadgen.admit_p99_ms": "ms",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.wait_s": "s",
    "audit.infeasible_links": "count",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Per-layer values that must repeat exactly for one seed.
LAYER_DET = (
    "cells.far_field_calls", "cells.query_calls", "cells.pairs",
    "affectance_sparse.nnz", "affectance_sparse.radius", "metricity.nodes",
    "context.add_links_calls", "context.links_added",
    "context.remove_links_calls", "repair.apply_calls", "daemon.flushes",
    "context.plan_slots", "repair.slot_count", "audit.infeasible_links",
)

WORKLOAD_NAMES = (
    "serve_open_m10k", "replay_batch_m10k", "plan_measured_m400",
)


def _import_program():
    """Put the repository's ``src`` and this directory on the path."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}")
    if not pathlib.Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: imported the program from {repro.__file__}, "
                 f"not from {ROOT / 'src'}")


def _percentile(values, q: float) -> float:
    from workloads import _percentile as pct

    return pct(values, q) if values else 0.0


def _layer_metrics(tracer, run, base) -> dict:
    s, calls, counters = tracer.self_s, tracer.calls, tracer.counters
    repair = run.repair
    # Daemon flushes of the replay: one feed then one apply each.  Every
    # event carries one arrival, so a flush's arrivals count its events.
    lo, hi = run.flush_window
    feeds = tracer.feeds[lo:hi]
    ends = tracer.apply_ends[lo:hi]
    service, wait = [], []
    if feeds:
        event = 0
        for (start, arrivals), end in zip(feeds, ends):
            for _ in range(arrivals):
                service.append(end - start)
                wait.append(run.latencies_s[event] - (end - start))
                event += 1
    n_events = len(service)
    return {
        "cells.far_field_s": s["cells.far_field"],
        "cells.far_field_calls": calls["cells.far_field"],
        "cells.query_s": s["cells.query"],
        "cells.query_calls": calls["cells.query"],
        "cells.pairs": int(counters["cells.pairs"]),
        "affectance_sparse.build_self_s": s["affectance_sparse.build"],
        "affectance_sparse.nnz": int(tracer.first.get("affectance_sparse.nnz", 0)),
        "affectance_sparse.radius": tracer.first.get("affectance_sparse.radius", 0.0),
        "metricity.s": s["metricity"],
        "metricity.nodes": int(tracer.first.get("metricity.nodes", 0)),
        "affectance.matrix_s": s["affectance.matrix"],
        "context.init_s": s["context.init"],
        "context.first_fit_s": s["context.first_fit"],
        "context.repeated_capacity_s": s["context.repeated_capacity"],
        "context.plan_slots": run.plan_slots,
        "context.add_links_s": s["context.add_links"],
        "context.add_links_calls": calls["context.add_links"],
        "context.links_added": int(counters["context.links_added"]),
        "context.remove_links_s": s["context.remove_links"],
        "context.remove_links_calls": calls["context.remove_links"],
        "dynamics.feed_self_s": s["dynamics.feed"],
        "repair.anchor_s": s["repair.anchor"],
        "repair.apply_s": s["repair.apply"],
        "repair.apply_calls": calls["repair.apply"],
        "repair.placements": repair["placements"],
        "repair.opened": repair["opened"],
        "repair.evictions": repair["evictions"],
        "repair.deferred": repair["deferred"],
        "repair.compactions": repair["compactions"],
        "repair.merged": repair["merged"],
        "repair.open_ratio": repair["opened"] / max(repair["placements"], 1),
        "repair.slot_count": run.slot_count,
        "daemon.self_s": s["daemon.build"] + s["daemon.flush"],
        "daemon.service_ms_p50": 1e3 * _percentile(service, 50),
        "daemon.service_ms_p99": 1e3 * _percentile(service, 99),
        "daemon.queue_wait_ms_p50": 1e3 * _percentile(wait, 50),
        "daemon.queue_wait_ms_p99": 1e3 * _percentile(wait, 99),
        "daemon.flushes": len(feeds),
        "daemon.events_per_flush": n_events / len(feeds) if feeds else 0.0,
        "io.checkpoint_s": s["io.checkpoint"],
        "io.checkpoint_bytes": run.checkpoint_bytes,
        "io.restore_self_s": s["io.restore"],
        "loadgen.admit_p95_ms": 1e3 * _percentile(run.admit_s, 95),
        "loadgen.admit_p99_ms": 1e3 * _percentile(run.admit_s, 99),
        "loadgen.lag_p99_ms": 1e3 * _percentile(run.lags_s, 99),
        "loadgen.wait_s": s["loadgen.wait"],
        "audit.infeasible_links": run.infeasible,
        "trace.coverage": tracer.coverage(),
        "trace.overhead_frac": run.busy_s / base.busy_s - 1.0,
    }


def _fingerprint() -> str:
    """Hash of the program and benchmark sources (keys the record)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _check_record(key: str, det: dict) -> list[str]:
    """Compare ``det`` with earlier runs of the same seed; extend it."""
    path = STATE / "record" / f"{key}-{_fingerprint()}.json"
    earlier = json.loads(path.read_text()) if path.is_file() else {}
    errors = [
        f"deterministic value {name!r} changed across runs of one seed: "
        f"{earlier[name]!r} -> {det[name]!r}"
        for name in sorted(det.keys() & earlier.keys())
        if earlier[name] != det[name]
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**earlier, **det}, sort_keys=True, default=int))
    return errors


def measure(args) -> int:
    _import_program()
    import workloads
    from tracing import NullTracer, Tracer, install

    STATE.mkdir(exist_ok=True)

    def once(tracer):
        with tempfile.TemporaryDirectory(dir=STATE) as tmp:
            return asyncio.run(
                workloads.run_workload(
                    args.workload, args.size, args.seed, args.seconds,
                    tracer, pathlib.Path(tmp),
                )
            )

    run = once(NullTracer())
    det = json.loads(json.dumps(run.det, default=int))
    errors = list(run.errors)
    if args.trace:
        base = run
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            run = once(tracer)
        finally:
            uninstall()
        errors += run.errors
        traced_det = json.loads(json.dumps(run.det, default=int))
        if traced_det != det:
            errors.append("traced and untraced runs disagree on outputs")
        values = _layer_metrics(tracer, run, base)
        det.update({name: values[name] for name in LAYER_DET})
        units = LAYERS
    else:
        values = run.metrics
        units = E2E
    key = f"{args.workload}-{args.size}-s{args.seed}-t{args.seconds}"
    errors += _check_record(key, det)
    for message in errors:
        print(f"CHECK FAILED: {message}")
    for name, unit in units.items():
        print(f"{name:32s} {values[name]!r:>24} {unit}")
    report = {
        "correct": not errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(report))
    return 0 if not errors else 1


def selftest() -> int:
    """Every workload at the reduced size, traced and untraced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from the harness")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != E2E:
        problems.append("BENCHMARK.json end_to_end differs from the harness")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != LAYERS:
        problems.append("BENCHMARK.json per_layer differs from the harness")
    for name in WORKLOAD_NAMES:
        for trace, expected in ((0, E2E), (1, LAYERS)):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", "7", "--seconds", "1", "--trace", str(trace),
                "--size", "small",
            ]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=170
            )
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(report) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: report keys {sorted(report)}")
            elif set(report["metrics"]) != set(expected):
                problems.append(f"{label}: metric names differ")
            elif not (report["correct"] and report["attempted"] >= 1):
                problems.append(f"{label}: not correct")
            else:
                print(f"ok  {label}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "small"), default="full",
        help="small: the reduced harness self-test size",
    )
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
