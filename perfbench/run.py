"""dysurv benchmark: one workload per call, end-to-end figures by default,
per-layer figures with ``--trace 1``.

    python3 perfbench/run.py --workload tune_static --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` there and from nowhere else. Inputs come from ``--seed`` only.
The timed phase runs whole passes of the workload, at least four, until
``--seconds`` have gone by; times are medians over passes, each scaled to
a reference host speed (see hostspeed.py). Set-up is repeated and its median
reported. The traced run adds one pass with spans on, then the per-layer
probes. The last line of standard output is the JSON result; the exit
code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better); the order is the order of the printout
END_TO_END = {
    "setup_s": ("s", "lower"),
    "prep_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "predict_p50_ms": ("ms", "lower"),
    "predict_p99_ms": ("ms", "lower"),
    "predict_subjects_per_s": ("1/s", "higher"),
    "importance_s": ("s", "lower"),
    "cli_evaluate_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_frac": ("ratio", "higher"),
    "val_nll": ("nats", "lower"),
    "test_c_td": ("ratio", "higher"),
    "test_ibs": ("score", "lower"),
}
PASS_TIMES = ("prep_s", "fit_s", "eval_s", "importance_s", "cli_evaluate_s", "total_s")
# four passes of at least 250 requests give p99 at least ten samples beyond it
MIN_PASSES = 4


def cap_blas_threads() -> None:
    """Keep every BLAS pool at or below the core count; must run before
    numpy is imported."""
    cores = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var)
        if value is not None and (not value.isdigit() or int(value) > cores):
            os.environ[var] = str(cores)


def import_package() -> None:
    """Import dysurv from this checkout's src/, refusing any other copy."""
    if not (SRC / "dysurv" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'dysurv'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import dysurv

    if Path(dysurv.__file__).resolve().parent != (SRC / "dysurv").resolve():
        raise SystemExit(f"error: imported dysurv from {dysurv.__file__}, not from {SRC}")


def machine_record() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(setups: list[tuple[dict, dict]], passes: list, host, scaled: bool) -> dict:
    """Fold set-ups and passes into the end-to-end figures: medians over
    set-ups and over passes, percentiles over every request of the run.
    With ``scaled`` each time is scaled to the reference host speed by the
    kernel times taken right around it."""

    def at_ref(seconds: float, first: int, last: int) -> float:
        return host.scaled(seconds, first, last) if scaled else seconds

    values: dict[str, float] = {}
    for key in setups[0][0]:
        values[key] = statistics.median(
            at_ref(figures[key], *brackets[key]) for figures, brackets in setups)
    values["setup_s"] = statistics.median(
        sum(at_ref(figures[key], *brackets[key]) for key in figures)
        for figures, brackets in setups)
    for key in PASS_TIMES:
        if key in passes[0].figures:
            values[key] = statistics.median(
                at_ref(p.figures[key], *p.brackets[key]) for p in passes)
    values["predict_subjects_per_s"] = statistics.median(
        p.figures["batch_subjects"] / at_ref(p.figures["batch_s"], *p.brackets["batch_s"])
        for p in passes)
    latencies = [at_ref(ms / 1e3, *b) * 1e3 for p in passes
                 for ms, b in zip(p.latencies_ms, p.latency_host)]
    values["predict_p50_ms"] = percentile(latencies, 50)
    values["predict_p99_ms"] = percentile(latencies, 99)
    return values


def fold(setups: list[tuple[dict, dict]], passes: list, host, lg) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics (scaled times), the same with raw times, and
    notes. Also checks that every pass gave the same model quality, since
    passes of one seed must repeat exactly."""
    for p in passes[1:]:
        lg.check(p.state.eval, "passes repeat the model quality exactly",
                 p.quality == passes[0].quality, f"{passes[0].quality} vs {p.quality}")
    common = dict(passes[0].quality)
    common["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    common["success_frac"] = (lg.attempted - lg.failed) / lg.attempted
    scaled = {**end_to_end(setups, passes, host, True), **common}
    raw = {**end_to_end(setups, passes, host, False), **common}
    notes = [f"latency samples: {sum(len(p.latencies_ms) for p in passes)}",
             f"passes: {len(passes)}", f"set-ups: {len(setups)}"]
    return ({k: scaled[k] for k in END_TO_END}, {k: raw[k] for k in END_TO_END}, notes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny only proves the code runs; figures are not comparable")
    args = ap.parse_args(argv)

    cap_blas_threads()
    import_package()
    from ledger import Ledger
    from probes import PER_LAYER, Probes
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out_dir = ROOT / ".bench_out"
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    lg = Ledger(Tracer(False))
    wl = WORKLOADS[args.workload](args.size, args.seed, work, SRC)
    try:
        wl.generate()
        wl.host.start_timer()
        setups = [wl.run_setup(lg) for _ in range(wl.p["setup_reps"])]
        passes = []
        started = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - started < args.seconds:
            passes.append(wl.run_pass(lg.tracer, lg))
        metrics, raw, notes = fold(setups, passes, wl.host, lg)
        units = END_TO_END
        probe_errors: list[str] = []
        if args.trace:
            tracer = Tracer(True, run="traced")
            lg.tracer = tracer
            traced = wl.run_pass(tracer, lg)
            wl.host.stop_timer()
            tracer.run = "probe"
            probes = Probes(tracer, work)
            # both sides scaled, so that a host phase change is not read as
            # overhead; the median keeps the first pass's warm-up out
            untraced = statistics.median(
                wl.host.scaled(p.figures["total_s"], *p.brackets["total_s"]) for p in passes)
            traced_s = wl.host.scaled(traced.figures["total_s"], *traced.brackets["total_s"])
            metrics = raw = probes.run_all(traced, traced_s, untraced, args.seed)
            probe_errors = probes.errors
            units = PER_LAYER
            tracer.write(out_dir / f"trace_{args.workload}_s{args.seed}.json")
    finally:
        wl.host.stop_timer()
        shutil.rmtree(work, ignore_errors=True)

    correct = lg.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "machine": machine_record(), "notes": notes, "host_kernel_ms": wl.host.samples,
        "checks_run": lg.checks_run,
        "errors": lg.errors, "probe_errors": probe_errors,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"record_{args.workload}_s{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics, "raw_metrics": raw}, indent=2) + "\n",
        encoding="utf-8")
    for text in lg.errors + probe_errors:
        print(text, file=sys.stderr)
    print(f"# {args.workload} seed {args.seed} ({'; '.join(notes)}; "
          f"{lg.checks_run} checks, {lg.failed}/{lg.attempted} operations failed)")
    print("# machine " + json.dumps(record["machine"], sort_keys=True))
    print(f"{'metric':34s} {'value':>14s} {'raw':>14s} unit")
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        unscaled = "null" if raw[name] is None else f"{raw[name]:.6g}"
        print(f"{name:34s} {shown:>14s} {unscaled:>14s} {units[name][0]}")
    result = {
        "correct": correct,
        "attempted": lg.attempted,
        "failed": lg.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
