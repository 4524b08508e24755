"""End-to-end and per-layer benchmark of oracle-forge synthesis and the brute-force verifier.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Workloads are listed in workloads.py.

--trace 0 runs the workload's fixed job in passes while --seconds allow (at
least one), checks every output independently and reports the end-to-end
metrics: setup_s (median of cold set-ups, each in a fresh interpreter),
candidates_per_s (candidates scored, or brute circuits examined, over the
sum of each operation's median time across passes) and peak_rss_mb.  Also
printed: wall_s, run_s_p50, error_rate, the golden-outcome comparison and,
for synth workloads, success_rate, mean_success_gen and mean_best_cost.

--trace 1 runs the job once untraced and once traced, and reports per-layer
counts, the share of traced wall time spent in each layer and
trace_overhead_s (traced minus untraced job time).  Spans are saved to
perfbench/out/.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 2, with nothing printed to standard output, when the sources are
missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 3  # before the first pass
SETUP_PROBES_PER_PASS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_environment() -> None:
    """One BLAS thread, and the serial engine path (no process pool)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ORACLE_FORGE_THREADS", None)


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, **{v: os.environ[v] for v in THREAD_VARS}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup_seconds(name: str, probes: int) -> list[float]:
    """Cold set-up times, each in a fresh interpreter."""
    times = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def golden(name: str, seed: int) -> list | None:
    return json.loads(GOLDEN.read_text()).get(name, {}).get(str(seed))


def timed_run(workloads, name, spec, seed, seconds):
    """Repeat the job while --seconds allow; each operation's time is its median over passes.

    Set-up probes run before and between passes, so that their median, like
    the operations', spans the whole run rather than one moment of it.
    """
    setup_s = setup_seconds(name, SETUP_PROBES)
    gs, goals = workloads.setup(spec)
    outcomes = workloads.Outcomes(spec, goals, golden(name, seed))
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        ops = workloads.run_job(spec, gs, goals, seed)
        elapsed = perf_counter() - t0
        passes.append(ops)
        outcomes.record(ops)
        setup_s += setup_seconds(name, SETUP_PROBES_PER_PASS)
        if perf_counter() - start + elapsed > seconds:
            break
    op_s = [statistics.median(p[i].seconds for p in passes) for i in range(len(passes[0]))]
    wall = sum(op_s)
    first = passes[0]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "candidates_per_s": (workloads.candidates(spec, first) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report = {
        "passes": (len(passes), "count"),
        "wall_s": (wall, "s"),
        "run_s_p50": (statistics.median(op_s), "s"),
        "run_s_samples": (len(op_s), "count"),
        "error_rate": (outcomes.failed / outcomes.attempted, "ratio"),
        "engine.golden_checked": (outcomes.golden_checked, "count"),
        "engine.golden_mismatches": (outcomes.golden_mismatches, "count"),
    }
    if isinstance(spec, workloads.Synth):
        done = [op.result for op in first if op.error is None]
        wins = [r for r in done if r.success]
        report["success_rate"] = (len(wins) / len(first), "ratio")
        report["mean_success_gen"] = (
            statistics.mean(r.generation_found for r in wins) if wins else float("nan"), "gen")
        report["mean_best_cost"] = (
            statistics.mean(r.best_eval.allcost for r in done) if done else float("nan"), "cost")
    return metrics, report, outcomes


def traced_run(workloads, name, spec, seed):
    import tracing

    gs, goals = workloads.setup(spec)
    outcomes = workloads.Outcomes(spec, goals, golden(name, seed))
    t0 = perf_counter()
    ops = workloads.run_job(spec, gs, goals, seed)
    untraced = perf_counter() - t0
    outcomes.record(ops)

    tracer = tracing.Tracer()
    with tracer.installed(), tracer.span("bench.run"):
        with tracer.span("bench.setup"):
            gs, goals = workloads.setup(spec)
        t0 = perf_counter()
        with tracer.span("bench.job"):
            ops = workloads.run_job(spec, gs, goals, seed, tracer)
        traced = perf_counter() - t0
    outcomes.record(ops)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{name}-seed{seed}-spans.npz")

    spans = tracer.by_name()

    def calls(span):
        return spans[span][0]

    def total(span):
        return spans[span][1]

    def pct(seconds):
        return (100.0 * seconds / total("bench.run"), "%")

    def layer_self(layer):
        return sum(v[2] for k, v in spans.items() if k.split(".", 1)[0] == layer)

    kron_calls = calls("kron_apply.evaluate") + calls("kron_apply.brute")
    kron_s = total("kron_apply.evaluate") + total("kron_apply.brute")
    work = workloads.candidates(spec, ops)
    cands, examined = (work, 0) if isinstance(spec, workloads.Synth) else (0, work)
    generations = cands // (workloads.POP * workloads.MEASUREMENTS)
    evaluations = calls("evaluate.evaluate_circuit")

    metrics = {
        "trace_overhead_s": (traced - untraced, "s"),
        "trace.wall_s": (total("bench.run"), "s"),
        "kron_apply.calls": (kron_calls, "count"),
        "kron_apply.evaluate.calls": (calls("kron_apply.evaluate"), "count"),
        "kron_apply.brute.calls": (calls("kron_apply.brute"), "count"),
        "kron_apply.mults_computed": (sum(tracer.mults.values()), "count"),
        "kron_apply.us_per_call": (1e6 * kron_s / kron_calls if kron_calls else 0.0, "us"),
        "codec.decode_calls": (calls("codec.decode"), "count"),
        "gates.cases_calls": (calls("gates.cases"), "count"),
        "engine.generations": (generations, "count"),
        "engine.candidates": (cands, "count"),
        "engine.evaluations": (evaluations, "count"),
        "engine.cache_hit_ratio": (1.0 - evaluations / cands if cands else 0.0, "ratio"),
        "engine.restarts": (calls("engine.init_population") - calls("engine.evolve"), "count"),
        "engine.golden_mismatches": (outcomes.golden_mismatches, "count"),
        "evaluate.distinct_ratio": (
            sum(map(len, tracer.distinct.values())) / evaluations if evaluations else 0.0,
            "ratio"),
        "brute.queries": (calls("brute.min_cost_search"), "count"),
        "brute.examined": (examined, "count"),
        "engine.rotate_pct": pct(total("engine.rotate_toward")),
        "evaluate.evaluate_pct": pct(total("evaluate.evaluate_circuit")),
        "evaluate.circuit_unitary_pct": pct(total("evaluate.circuit_unitary")),
        "evaluate.correctness_pct": pct(total("evaluate.correctness")),
        "brute.search_pct": pct(total("brute.min_cost_search")),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_pct"] = pct(layer_self(layer))
    report = {f"span {k}": (f"{v[0]} calls, {v[1]:.6f} s total, {v[2]:.6f} s self", "")
              for k, v in spans.items()}
    report["untraced job"] = (untraced, "s")
    report["traced job"] = (traced, "s")
    report["engine.golden_checked"] = (outcomes.golden_checked, "count")
    return metrics, report, outcomes


def fmt(value, unit) -> str:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"{text} {unit}".rstrip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: 100, the acceptance seeds")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oracle_forge" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    import workloads  # loads numpy, so only after the thread pins

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    spec = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, report, outcomes = traced_run(workloads, args.workload, spec, seed)
    else:
        metrics, report, outcomes = timed_run(workloads, args.workload, spec, seed, args.seconds)

    env = environment()
    print(f"workload {args.workload}  seed {seed}  trace {args.trace}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"  {name} = {fmt(value, unit)}")
    for failure in outcomes.failures:
        print(f"  FAILED {failure}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": seed, "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **report}.items()},
        "failures": outcomes.failures,
    }, indent=1) + "\n")
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
