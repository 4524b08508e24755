"""The benchmark's fixed-seed synth outcomes, checked in the test suite.

Each synth workload of `perfbench/workloads.py` runs its job at the default
seed, and every run's outcome (success, generation found, best cost,
generations run) must equal its record in `perfbench/golden.json` and pass
the benchmark's independent dense check.  Run as a script, the same
comparison runs without pytest and without the suite's BLAS thread pin:

    python3 tests/test_golden.py
"""
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def _load(name: str):
    """A perfbench module, loaded from its file and registered under its own
    name, so that its siblings' plain imports find it."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_load("check")
workloads = _load("workloads")

SYNTH = [name for name, spec in workloads.WORKLOADS.items()
         if isinstance(spec, workloads.Synth)]


def golden_mismatches(name: str) -> list[str]:
    """Each way the workload's job at the default seed departs from its golden record."""
    spec = workloads.WORKLOADS[name]
    gs, goals = workloads.setup(spec)
    ops = workloads.run_job(spec, gs, goals, workloads.DEFAULT_SEED)
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())[name]
    golden = golden[str(workloads.DEFAULT_SEED)]
    found = [] if len(ops) == len(golden) else [f"{name}: {len(ops)} runs, golden {len(golden)}"]
    for i, (op, want) in enumerate(zip(ops, golden)):
        got = workloads.outcome(spec, op)
        if got != want:
            found.append(f"{name} {op.label}: outcome {got}, golden {want}")
        found += [f"{name} {op.label}: {p}" for p in workloads.problems(spec, goals, i, op)]
    return found


def test_the_synth_workloads_repeat_their_golden_outcomes():
    assert SYNTH
    for name in SYNTH:
        assert golden_mismatches(name) == []


if __name__ == "__main__":
    mismatches = [line for name in SYNTH for line in golden_mismatches(name)]
    print("\n".join(mismatches) or f"golden outcomes match: {', '.join(SYNTH)}")
    sys.exit(1 if mismatches else 0)
