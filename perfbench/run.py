"""phaselab benchmark: one seeded workload per process, checked by the oracles.

    python3 perfbench/run.py --workload layer1d --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  The run sets the
workload's inputs up several times (``setup_s`` is the median), then repeats
its op until ``--seconds`` would be exceeded and reports the median op time
as ``run_s``.  Every op checks its results against phaselab's oracles.

With ``--trace 1`` the run alternates untraced and traced ops, reports the
per-layer metrics instead, and writes the spans to
``perfbench/traces/<workload>-seed<seed>.jsonl``.  A host record goes to
standard output first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import LAYERS, NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, Record, probes  # noqa: E402

SETUP_REPS = 15

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "minimize.relax_s": "s",
    "minimize.relax_iterations": "count",
    "minimize.relax_us_per_iter": "us",
    "minimize.relax_converged_frac": "1",
    "minimize.pass_fused_1d_us": "us",
    "minimize.pass_fused_1d_ns_per_node": "ns",
    "minimize.pass_fused_2d_us": "us",
    "minimize.pass_fused_2d_ns_per_node": "ns",
    "minimize.pass_generic_2d_us": "us",
    "minimize.pass_generic_2d_ns_per_node": "ns",
    "minimize.minimality_s": "s",
    "heteroclinic.bvp_s": "s",
    "heteroclinic.bvp_residual": "1",
    "integrand.callback_calls": "count",
    "integrand.callback_s": "s",
    "integrand.check_growth_s": "s",
    "field.translate_us": "us",
    "field.compare_us": "us",
    "field.sup_distance_us": "us",
    "field.io_s": "s",
    "orbit.extract_invariants_s": "s",
    "orbit.self_intersection_scan_s": "s",
    "orbit.total_order_s": "s",
    "foliation.verify_s": "s",
    "foliation.envelope_identity_s": "s",
    "foliation.asymptotic_s": "s",
    "foliation.asymptotic_calls": "count",
    "foliation.rigidity_s": "s",
    "foliation.build_family_s": "s",
    "cli.foliate_s": "s",
    "cli.classify_s": "s",
    "cli.rigidity_s": "s",
    "cli.asymptote_s": "s",
    "cli.report_s": "s",
    "accuracy.sup_error": "1",
    "accuracy.energy_gap": "1",
    "accuracy.equipartition": "1",
    "accuracy.b0_drift": "1",
    "fail_frac": "1",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "self.glue_s": "s",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

#: per-layer metric -> the span names whose inclusive time it sums, per op
SPAN_TIMES = {
    "minimize.relax_s": ("minimize.relax",),
    "minimize.minimality_s": ("minimize.minimality_spot_check",),
    "heteroclinic.bvp_s": ("heteroclinic.solve_heteroclinic_bvp",),
    "integrand.callback_s": ("integrand.callback",),
    "integrand.check_growth_s": ("integrand.check_growth",),
    "field.io_s": ("field.dump_csv", "field.load_csv"),
    "orbit.extract_invariants_s": ("orbit.extract_invariants",),
    "orbit.self_intersection_scan_s": ("orbit.self_intersection_scan",),
    "orbit.total_order_s": ("orbit.total_order_check",),
    "foliation.verify_s": ("foliation.verify_foliation",),
    "foliation.envelope_identity_s": ("foliation.envelope_identity_check",),
    "foliation.asymptotic_s": ("foliation.asymptotic_limit",),
    "foliation.rigidity_s": ("foliation.rigidity_check",),
    **{f"cli.{c}_s": (f"cli.{c}",) for c in ("foliate", "classify", "rigidity", "asymptote", "report")},
}


def import_phaselab():
    """Import phaselab afresh (numpy stays loaded) and return the package."""
    for name in [n for n in sys.modules if n == "phaselab" or n.startswith("phaselab.")]:
        del sys.modules[name]
    lib = importlib.import_module("phaselab")
    importlib.import_module("phaselab.cli")
    return lib


def host_record(args, first_import_s) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unavailable (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    threads = None
    status = Path("/proc/self/status")
    if status.is_file():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {
            v: os.environ.get(v)
            for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "process_threads": threads,
        "commit": commit,
        "first_import_s": first_import_s,
    }


def run_op(lib, op, inp, tr, rec) -> float:
    """Run one op inside an ``op`` span; an exception counts as a failed check."""
    t0 = perf_counter()
    with tr.span("op"):
        try:
            op(lib, inp, tr, rec)
        except Exception as exc:  # a library error is a failed operation
            traceback.print_exc(file=sys.stderr)
            rec.check("op raised", False, repr(exc))
    return perf_counter() - t0


def layer_metrics(tracer, traced_times, untraced_times, traced_rec, setup_tracer, lib) -> dict:
    ops, inclusive, self_time, calls = tracer.summary("op")
    _, setup_incl, _, _ = setup_tracer.summary("setup")
    m = {name: 0.0 for name in PER_LAYER}
    for metric, names in SPAN_TIMES.items():
        m[metric] = sum(inclusive[n] for n in names) / ops
    for layer in LAYERS:
        m[f"self.{layer}_s"] = sum(t for n, t in self_time.items() if n.startswith(layer + ".")) / ops
    m["self.glue_s"] = self_time["op"] / ops
    m["integrand.callback_calls"] = calls["integrand.callback"] / ops
    m["foliation.asymptotic_calls"] = calls["foliation.asymptotic_limit"] / ops
    m["foliation.build_family_s"] = setup_incl["foliation.build_family"]
    m["minimize.relax_iterations"] = traced_rec.relax_iterations / ops
    if traced_rec.relax_iterations:
        m["minimize.relax_us_per_iter"] = 1e6 * inclusive["minimize.relax"] / traced_rec.relax_iterations
    if traced_rec.relax_calls:
        m["minimize.relax_converged_frac"] = traced_rec.relax_converged / traced_rec.relax_calls
    m["heteroclinic.bvp_residual"] = traced_rec.worst.get("bvp_residual", 0.0)
    for key in ("sup_error", "energy_gap", "equipartition", "b0_drift"):
        m[f"accuracy.{key}"] = traced_rec.worst.get(key, 0.0)
    # means, so that the self times (summed per op) add up to trace.run_s
    m["trace.run_s"] = statistics.fmean(traced_times)
    m["trace.untraced_run_s"] = statistics.fmean(untraced_times)
    m["trace.overhead_s"] = m["trace.run_s"] - m["trace.untraced_run_s"]
    m["trace.spans"] = len(tracer.spans) / ops
    m.update(probes(lib))
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phaselab" / "__init__.py").is_file():
        print(f"error: no phaselab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    lib = import_phaselab()
    first_import_s = perf_counter() - t0
    if not Path(lib.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: phaselab imported from {lib.__file__}, not this checkout", file=sys.stderr)
        return 2

    setup, op = WORKLOADS[args.workload]
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / ".work"))
    try:
        null, setup_tracer = NullTracer(), Tracer()
        setup_times = []
        for k in range(SETUP_REPS):
            # trace the last set-up only: its spans give foliation.build_family_s
            tr = setup_tracer if args.trace and k == SETUP_REPS - 1 else null
            t = perf_counter()
            with tr.span("setup"):
                lib = import_phaselab()
                inp = setup(lib, args.seed, work, tr)
            setup_times.append(perf_counter() - t)
            # drop the previous set-up's module copies and inputs, which sit in
            # reference cycles, so that peak_rss_mb holds one set of inputs
            gc.collect()

        rec, traced_rec = Record(), Record()
        tracer = Tracer()
        times = {False: [], True: []}
        start = perf_counter()
        while True:
            traced = bool(args.trace) and len(times[False]) > len(times[True])
            dt = run_op(lib, op, inp, tracer if traced else null, traced_rec if traced else rec)
            times[traced].append(dt)
            if args.trace and not times[True]:
                continue
            if perf_counter() - start + dt > args.seconds:
                break
        if args.trace:
            metrics = layer_metrics(tracer, times[True], times[False], traced_rec, setup_tracer, lib)
            rec.attempted += traced_rec.attempted
            rec.failures += traced_rec.failures
            metrics["fail_frac"] = len(rec.failures) / rec.attempted
            units = PER_LAYER
            (BENCH_DIR / "traces").mkdir(exist_ok=True)
            tracer.dump(BENCH_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = {
                "run_s": statistics.median(times[False]),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in rec.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("# host " + json.dumps(host_record(args, first_import_s), sort_keys=True))
    print(f"# ops untraced={len(times[False])} traced={len(times[True])} setup_reps={SETUP_REPS}")
    result = {
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
