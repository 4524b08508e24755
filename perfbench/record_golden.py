"""Record the golden outcomes of every synth workload at the default seed.

    python3 perfbench/record_golden.py

Writes perfbench/golden.json: per workload and seed, one record
[success, generation_found, best cost, generations_run] per evolve run.
run.py compares every job against it and reports engine.golden_mismatches.
Re-record only for a change meant to alter fixed-seed outcomes, and say why.
"""
import json

import run

run.pin_environment()
import workloads  # noqa: E402  (loads numpy, so only after the thread pins)

golden = {}
for name, spec in workloads.WORKLOADS.items():
    if not isinstance(spec, workloads.Synth):
        continue
    gs, goals = workloads.setup(spec)
    ops = workloads.run_job(spec, gs, goals, workloads.DEFAULT_SEED)
    outcomes = workloads.Outcomes(spec, goals, None)
    outcomes.record(ops)
    if outcomes.failures:
        raise SystemExit(f"{name}: not recording failed runs: {outcomes.failures}")
    golden[name] = {str(workloads.DEFAULT_SEED): outcomes.first}
    print(name, golden[name])
run.GOLDEN.write_text(
    "{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in golden.items()) + "\n}\n")
