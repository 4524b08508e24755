"""The benchmark's fixed-seed synth outcomes and work, checked in the test suite.

Each synth workload of `perfbench/workloads.py` runs its job at the default
seed, and every run's outcome (success, generation found, best cost,
generations run) must equal its record in `perfbench/golden.json` and pass
the benchmark's independent dense check.  The job's work must equal its
pin in `WORK`: generations, rows drawn, rows scored and block steps by kind,
counted by wrappers around the library's functions, none inside a kernel.
Run as a script, the same comparison runs without pytest and without the
suite's BLAS thread pin:

    python3 tests/test_golden.py
"""
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from oracle_forge import engine, evaluate  # noqa: E402


def _load(name: str):
    """A perfbench module, loaded from its file and registered under its own
    name, so that its siblings' plain imports find it."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_previous = {name: sys.modules.get(name) for name in ("check", "workloads")}
_load("check")
workloads = _load("workloads")
# Put back what the names held before, so that perfbench's own tests, in the
# same session, patch the very `workloads` that perfbench/run.py imports.
for _name, _module in _previous.items():
    if _module is None:
        del sys.modules[_name]
    else:
        sys.modules[_name] = _module

SYNTH = [name for name, spec in workloads.WORKLOADS.items()
         if isinstance(spec, workloads.Synth)]

# Each synth job's work at the default seed.  A change that does other work
# for the same outcomes re-records these and says why.
WORK = {
    "synth-entangle3": {"generations": 84, "rows drawn": 16_800, "rows scored": 16_800},
    "synth-controlled_s": {"generations": 225, "rows drawn": 45_000, "rows scored": 32_858},
    "synth-ghz6": {"generations": 54, "rows drawn": 10_800, "rows scored": 10_800,
                   "diagonal steps": 7_276, "permutation steps": 2_043,
                   "dense steps": 1_840},
}


def count_work(patch) -> Counter:
    """Wrap the functions that show a synth job's work, each set by
    `patch(module, name, wrapper)` (pytest's `monkeypatch.setattr`, or the
    builtin `setattr` in script mode), and return the Counter the wrappers
    add to."""
    work = Counter()

    def wrap(module, name, tally):
        inner = getattr(module, name)

        def counted(*args):
            out = inner(*args)
            work.update(tally(*args, out))
            return out

        patch(module, name, counted)

    wrap(engine, "decode_indices", lambda bits, n, rows: {"rows drawn": len(rows)})
    wrap(engine, "evaluate_batch",
         lambda rows, *rest: {"generations": 1, "rows scored": len(rows)})
    wrap(evaluate, "apply_block_step", lambda step, *rest: {f"{step.kind} steps": 1})
    return work


def golden_mismatches(name: str, work: Counter) -> list[str]:
    """Each way the workload's job at the default seed departs from its golden
    record or its pinned work; `work` is `count_work`'s Counter."""
    spec = workloads.WORKLOADS[name]
    gs, goals = workloads.setup(spec)
    work.clear()
    ops = workloads.run_job(spec, gs, goals, workloads.DEFAULT_SEED)
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())[name]
    golden = golden[str(workloads.DEFAULT_SEED)]
    found = [] if len(ops) == len(golden) else [f"{name}: {len(ops)} runs, golden {len(golden)}"]
    if dict(work) != WORK[name]:
        found.append(f"{name}: work {dict(work)}, pinned {WORK[name]}")
    for i, (op, want) in enumerate(zip(ops, golden)):
        got = workloads.outcome(spec, op)
        if got != want:
            found.append(f"{name} {op.label}: outcome {got}, golden {want}")
        found += [f"{name} {op.label}: {p}" for p in workloads.problems(spec, goals, i, op)]
    return found


def test_the_synth_workloads_repeat_their_golden_outcomes(monkeypatch):
    assert SYNTH and set(WORK) == set(SYNTH)
    work = count_work(monkeypatch.setattr)
    for name in SYNTH:
        assert golden_mismatches(name, work) == []


if __name__ == "__main__":
    work = count_work(setattr)  # the script exits after its one pass, so nothing is undone
    mismatches = [line for name in SYNTH for line in golden_mismatches(name, work)]
    print("\n".join(mismatches) or f"golden outcomes and work match: {', '.join(SYNTH)}")
    sys.exit(1 if mismatches else 0)
