"""The benchmark's workloads: goals, search settings and expected answers.

Synth workloads run `engine.evolve` on the run seeds seed, seed+1, ... at
an acceptance configuration with `max_gen` capped.  The cap only cuts a
run short: its generations are the first ones of the uncapped run.  A job
spreads its time over several seeds, because work per candidate follows
each seed's trajectory (cache hits rise as the population converges), and
is kept to under a third of the default --seconds so a run makes three
passes.

The brute workload runs `brute.min_cost_search` on fixed inputs with
hand-written answers; `--seed` does not change it.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from oracle_forge import brute, engine, targets  # noqa: E402
from oracle_forge.evaluate import FitnessParams, GoalSpec  # noqa: E402
from oracle_forge.gates import default_gate_set  # noqa: E402

import check  # noqa: E402

DEFAULT_SEED = 100
POP, MEASUREMENTS = 20, 10


@dataclass(frozen=True)
class Synth:
    goal: str
    max_gates: int
    satcost: int
    punish: float
    max_gen: int
    runs: int  # evolve runs per job, seeds seed .. seed+runs-1

    def params(self, seed: int) -> engine.HqeaParams:
        return engine.HqeaParams(
            fitness=FitnessParams(satcost=self.satcost, award=1.0, punish=self.punish),
            pop_size=POP, measurements=MEASUREMENTS, max_gen=self.max_gen, seed=seed,
        )


@dataclass(frozen=True)
class Brute:
    queries: tuple  # (goal, max_gates, expected min cost or None)


WORKLOADS = {
    # criterion 8a (entangle3, m=3): 8x8 matrices, no cache hits in the first
    # generations, so the evaluator and the structured kernel dominate
    "synth-entangle3": Synth("entangle3", 8, 8, 20.0, max_gen=12, runs=7),
    # criterion 8b (controlled_s, m=2): 4x4 matrices and about a third of the
    # candidates served by the cache, so the engine loop and codec weigh most
    "synth-controlled_s": Synth("controlled_s", 8, 10, 100.0, max_gen=45, runs=5),
    # 6-qubit GHZ preparation: the large-m kernel regime (64x64 matrices) and
    # the memory the cache of lambda matrices holds
    "synth-ghz6": Synth("ghz6", 8, 11, 20.0, max_gen=18, runs=3),
    # exhaustive DFS through kron_apply only; no codec, engine or cache
    "brute-builtins": Brute((
        ("entangle2", 5, 3),
        ("swap", 5, 6),
        ("entangle3", 4, 5),
        ("controlled_s", 5, None),
    )),
}


def ghz6(gs) -> GoalSpec:
    """GHZ preparation on 6 qubits: H on q0, then CNOT down the chain (cost 11)."""
    m = 6
    circuit = [gs.placement("H", 0, m)] + [gs.placement("CNOT", q, m) for q in range(m - 1)]
    return GoalSpec(m, check.dense_unitary(circuit, m), name="ghz6")


def setup(spec):
    """Build the gate set and every goal the workload needs."""
    gs = default_gate_set()
    names = [q[0] for q in spec.queries] if isinstance(spec, Brute) else [spec.goal]
    goals = {g: ghz6(gs) if g == "ghz6" else targets.builtin(g) for g in names}
    return gs, goals


@dataclass
class Op:
    """One evolve run or one brute query, with its outcome."""

    label: str
    seconds: float
    result: object = None
    error: str | None = None


def run_job(spec, gs, goals, seed: int, tracer=None) -> list[Op]:
    """Run one job; the library is reached through its module attributes."""
    ops = []
    if isinstance(spec, Synth):
        calls = [(f"seed {s}", lambda s=s: engine.evolve(
            goals[spec.goal], gs, spec.max_gates, spec.params(s)))
            for s in range(seed, seed + spec.runs)]
    else:
        calls = [(f"{goal}/{g}", lambda goal=goal, g=g: brute.min_cost_search(goals[goal], g, gs))
                 for goal, g, _ in spec.queries]
    for i, (label, call) in enumerate(calls):
        if tracer is not None:
            tracer.run = i + 1
        result = error = None
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising operation counts as failed
            error = f"{type(exc).__name__}: {exc}"
        ops.append(Op(label, perf_counter() - t0, result, error))
    return ops


def candidates(spec, ops) -> int:
    """Candidates scored: pop x measurements per generation, or brute circuits examined."""
    done = [op.result for op in ops if op.error is None]
    if isinstance(spec, Synth):
        return sum(r.generations_run for r in done) * POP * MEASUREMENTS
    return sum(r.circuits_examined for r in done)


def outcome(spec, op):
    """What must repeat exactly: for evolve, the golden record (success,
    generation found, best cost, generations run); for brute, the answer
    and the circuits examined."""
    if op.error is not None:
        return None
    r = op.result
    if isinstance(spec, Synth):
        return [r.success, r.generation_found, r.best_eval.allcost, r.generations_run]
    return [r.min_cost, r.circuits_examined]


def problems(spec, goals, i: int, op) -> list[str]:
    """Independent check of the i-th operation of a job."""
    if op.error is not None:
        return [f"raised {op.error}"]
    if isinstance(spec, Synth):
        return check.synth(op.result, goals[spec.goal], spec.params(0).fitness)
    goal, g, expected = spec.queries[i]
    return check.brute(op.result, goals[goal], g, expected)


class Outcomes:
    """Failed operations and golden comparisons across every job of a run.

    An operation fails when it raises, fails the independent check, or does
    not repeat the first job's outcome.  A golden mismatch is reported, not
    failed: a change may alter fixed-seed outcomes if it says why.
    """

    def __init__(self, spec, goals, golden: list | None):
        self.spec, self.goals, self.golden = spec, goals, golden
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.golden_checked = self.golden_mismatches = 0
        self.first = None

    def record(self, ops) -> None:
        self.attempted += len(ops)
        got = [outcome(self.spec, op) for op in ops]
        self.first = self.first or got
        for i, (op, key, ref) in enumerate(zip(ops, got, self.first)):
            found = problems(self.spec, self.goals, i, op)
            if key != ref:
                found.append(f"differs from the first job: {key} vs {ref}")
            if found:
                self.failed += 1
                self.failures.append(f"{op.label}: {'; '.join(found)}")
        if self.golden is not None:
            self.golden_checked += len(got)
            self.golden_mismatches += sum(a != b for a, b in zip(got, self.golden))
