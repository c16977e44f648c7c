"""Repository benchmark: ``train``, ``simulate`` and ``serve`` workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload train --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: set-up
time, the median time of the workload's fixed unit of work, peak RSS, the
share of operations that succeeded, and work per second.  Units repeat,
each cold (fresh ``REPRO_CACHE_DIR``), until ``--seconds`` of wall time
would be exceeded; at least one always runs.  One more untimed set-up +
unit measures peak RSS.  ``--trace 1`` runs a traced set-up + unit in its
place and prints the per-layer metrics instead: self time per called
``repro`` function group, per-module self time, counters, and the tracing
overhead (traced minus untraced time).  Spans are kept in memory and
written to ``.perfbench/trace-<workload>-seed<seed>.json``.

Times are CPU seconds normalised to a reference host speed (see
:mod:`speed`), not wall time.  The workloads are serial, so on an idle host
CPU and wall time agree; on a shared host wall time also counts the time
other tenants hold the CPU, and both slow down while tenants share the
core: on a shared 2-CPU VM that spread identical runs by up to 30%.  Raw
CPU and wall times are printed in the report.

Correctness checks run outside the timed phase; every failed check or
raised operation counts in ``failed``.  The last stdout line is the JSON
result; everything before it is a human-readable report.

Load discipline: one process, no worker pool (``REPRO_*`` knobs cleared, so
``REPRO_WORKERS`` is unset), one BLAS thread (a spinning BLAS pool would
bill idle waits as CPU time), and a fresh cache directory per unit.

``--record-goldens`` stores the run's default-seed goldens in
``perfbench/goldens.json``; only do that when an output change is intended.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "goldens.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBES = 3  # set-up samples per run, at least
M_MMAP_THRESHOLD = -3  # mallopt parameter, from glibc's malloc.h
DEFAULT_SEED = 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "simulate", "serve"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    return parser.parse_args(argv)


def discipline_env() -> dict:
    """Pin BLAS to one thread, clear ``REPRO_*`` knobs; returns what was set."""
    threads = "1"
    for var in BLAS_THREAD_VARS:
        os.environ[var] = threads
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return {"blas_threads": int(threads), "cleared_repro_env": cleared}


def host_fingerprint(env: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **env,
    }


#: Run in a fresh interpreter: prints the normalised seconds of the imports.
IMPORT_PROBE = """
from speed import SpeedMeter
with SpeedMeter() as meter:
    import workloads
print(meter.ref_s, meter.cpu_s)
"""


class Timings:
    """Per-sample timings of one phase: normalised, CPU and wall seconds."""

    def __init__(self) -> None:
        self.ref: list[float] = []
        self.cpu: list[float] = []
        self.wall: list[float] = []

    def timed(self, fn, *args):
        from speed import SpeedMeter

        start = time.perf_counter()
        with SpeedMeter() as meter:
            result = fn(*args)
        self.wall.append(time.perf_counter() - start)
        self.ref.append(meter.ref_s)
        self.cpu.append(meter.cpu_s)
        return result

    def report(self) -> str:
        return "; ".join(
            f"{label} " + ", ".join(f"{v:.3f}" for v in values)
            for label, values in (("normalised", self.ref), ("CPU", self.cpu),
                                  ("wall", self.wall))
        )


def import_seconds() -> Timings:
    """Cold-interpreter time to import everything the workloads use."""
    timings = Timings()
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True, timeout=120,
            capture_output=True, text=True,
        ).stdout.split()
        timings.wall.append(time.perf_counter() - start)
        timings.ref.append(float(out[0]))
        timings.cpu.append(float(out[1]))
    return timings


def memory_unit(workload):
    """One more set-up + unit, with glibc's mmap threshold fixed; its peak RSS in MB.

    By default glibc raises its mmap threshold as large blocks are freed,
    so freed arrays may stay resident and the same unit's peak RSS moved by
    up to 8% between runs.  With a fixed 1 MB threshold every large array
    is returned to the system when freed, and the peak follows the live
    memory.  This costs page faults, so it runs after every timed unit.
    """
    libc = ctypes.CDLL(None)
    if not libc.mallopt(M_MMAP_THRESHOLD, 1 << 20):
        raise RuntimeError("mallopt(M_MMAP_THRESHOLD) failed")
    gc.collect()
    libc.malloc_trim(0)
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")  # restart the peak (VmHWM) from the current RSS
    unit = workload.unit(workload.setup())
    unit.extra.clear()
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return unit, int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def measure(workload, seconds: float, goldens: dict | None):
    """Cold set-up + unit pairs until the next unit would overrun ``seconds``.

    The first unit's outputs are checked as soon as it ends, so that no unit
    runs with a previous unit's objects alive (a larger heap slows the
    garbage collector); each set-up starts from a collected heap.  The last
    unit's time is kept free for one extra unit, traced or measuring
    memory.  Returns the units,
    the checks, and the set-up and unit timings.
    """
    units, setup_times, unit_times = [], Timings(), Timings()
    checks: list[tuple[str, bool, str]] = []
    elapsed = 0.0
    while True:
        gc.collect()
        start = time.perf_counter()
        state = setup_times.timed(workload.setup)
        unit = unit_times.timed(workload.unit, state)
        elapsed += time.perf_counter() - start
        del state
        if not units:
            checks = workload.checks(unit, goldens)
        unit.extra.clear()
        units.append(unit)
        if elapsed + 2 * unit_times.wall[-1] > seconds:
            break
    while len(setup_times.ref) < IMPORT_PROBES:
        gc.collect()
        setup_times.timed(workload.setup)
    return units, checks, setup_times, unit_times


def traced_unit(workload, tracer_mod):
    """One set-up + unit with every trace target wrapped, and its timings."""
    from speed import work_time
    from workloads import layer_kind

    tracer = tracer_mod.Tracer(clock=work_time)
    timings = Timings()

    def setup_and_unit():
        state = workload.setup()
        for model in workload.traced_models(state):
            tracer_mod.wrap_layers(tracer, model, layer_kind)
        return workload.unit(state)

    gc.collect()
    with tracer_mod.instrument(tracer, workload.trace_targets()):
        unit = timings.timed(setup_and_unit)
    return tracer, unit, timings


def layer_metrics(workload, tracer, unit, traced, overhead_s, names, modules):
    # Span times are the traced run's CPU seconds; normalise them like its total.
    factor = traced.ref[0] / traced.cpu[0]
    spans = {name: t * factor for name, t in tracer.self_times().items()}
    values = {}
    for name in names:
        # "<span>_s" / "<span>_self_s" is the self time of that span name.
        for suffix in ("_self_s", "_s"):
            if name.endswith(suffix) and name[: -len(suffix)] in spans:
                values[name] = spans[name[: -len(suffix)]]
                break
    for module in modules:
        values[f"{module}.self_s"] = sum(
            t for span, t in spans.items() if span.split(".")[0] == module
        )
    named = sum(spans.values())
    values.update(workload.layer_values(unit, tracer))
    values.update({
        "trace.wall_s": traced.wall[0],
        "trace.coverage": named / traced.ref[0],
        "trace.overhead_s": overhead_s,
        "trace.spans": len(tracer.spans),
    })
    # Spans no call reached: the module is idle on this workload.
    return {name: float(values.get(name, 0.0)) for name in names}, spans


def report_table(rows: list[tuple]) -> str:
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"  {name:<{width}}  {value}" for name, value in rows)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = discipline_env()

    import tracer as tracer_mod
    import workloads

    fingerprint = host_fingerprint(env)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    scratch = ROOT / ".perfbench" / f"run-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    try:
        imports = import_seconds()
        units, checks, setup_times, unit_times = measure(
            workload, args.seconds, goldens.get(args.workload)
        )
        first = units[0]
        checks += [
            (f"unit {i} repeats unit 0", workloads.close(u.outputs, first.outputs), "")
            for i, u in enumerate(units[1:], 1)
        ]
        # Either a traced unit or the memory unit: the traced unit's objects
        # would inflate the memory unit's peak, and the memory unit's fixed
        # mmap threshold, which stays for the rest of the process, would
        # slow the traced unit.
        traced, peak_rss_mb = None, None
        if args.trace:
            traced = traced_unit(workload, tracer_mod)
            extra = traced[1]
        else:
            extra, peak_rss_mb = memory_unit(workload)
        checks.append(("extra unit repeats unit 0",
                       workloads.close(extra.outputs, first.outputs), ""))
        if args.record_goldens:
            goldens[args.workload] = {"seed": args.seed, **workload.golden_view(first)}
            GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(u.attempted for u in units) + extra.attempted + len(checks)
    failed = sum(u.failed for u in units) + extra.failed + sum(not ok for _, ok, _ in checks)
    median = statistics.median
    setup_s = median(imports.ref) + median(setup_times.ref)
    # Excluded time is work CPU time; scale it like the unit's total.
    throughput = median(
        u.work / (ref * (1 - u.excluded_s / cpu))
        for u, ref, cpu in zip(units, unit_times.ref, unit_times.cpu)
    )
    end_to_end = {
        "setup_s": setup_s,
        "norm_cpu_s": median(unit_times.ref),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1.0 - failed / attempted,
        "throughput_per_norm_cpu_s": throughput,
    }

    print(f"perfbench {args.workload} seed={args.seed} — {why}")
    print("host: " + json.dumps(fingerprint))
    print(f"units: {len(units)}; seconds per unit: {unit_times.report()}")
    print(f"set-up seconds: imports: {imports.report()}; in-process: {setup_times.report()}")
    throughput_name = {
        "train": "train_samples_per_s", "simulate": "plans_per_s",
        "serve": "serve_requests_per_s",
    }[args.workload]
    print("end-to-end:")
    print(report_table([
        ("setup_s", f"{setup_s:.4f} s"),
        ("norm_cpu_s", f"{end_to_end['norm_cpu_s']:.4f} s (CPU {median(unit_times.cpu):.4f} s, "
         f"wall {median(unit_times.wall):.4f} s)"),
        ("peak_rss_mb", "not measured with --trace 1" if peak_rss_mb is None else
         f"{peak_rss_mb:.1f} MB (one more set-up + unit, 1 MB mmap threshold)"),
        ("error_rate", f"{failed / attempted:.4f} ({failed} of {attempted} operations)"),
        (throughput_name, f"{throughput:.2f} per normalised CPU second"),
        *workload.summary(first),
    ]))
    for name, ok, detail in checks:
        if not ok:
            print(f"CHECK FAILED: {name}: {detail}")
    print(f"checks: {len(checks) - sum(not ok for _, ok, _ in checks)} of {len(checks)} passed")

    if traced is None:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end
    else:
        tracer, unit, timings = traced
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, spans = layer_metrics(
            workload, tracer, unit, timings,
            timings.ref[0] - median(setup_times.ref) - median(unit_times.ref),
            list(wanted), tracer_mod.MODULES,
        )
        out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(out, {"workload": args.workload, "seed": args.seed, "host": fingerprint})
        print(f"traced run: {timings.report()} s, "
              f"overhead {values['trace.overhead_s']:+.3f} s, "
              f"named coverage {values['trace.coverage']:.1%}, "
              f"{len(tracer.spans)} spans -> {out}")
        print("self time by module (s): " + ", ".join(
            f"{m} {values[f'{m}.self_s']:.3f}" for m in tracer_mod.MODULES
            if values[f"{m}.self_s"]
        ))
        print("self time by span (s):")
        print(report_table(sorted(
            ((n, f"{t:.4f}") for n, t in spans.items()), key=lambda r: -float(r[1])
        )))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
