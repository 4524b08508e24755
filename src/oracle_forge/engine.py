"""Hybrid quantum-inspired evolutionary search for circuits.

Each population member is a vector of amplitude pairs (alpha, beta) with
alpha^2 + beta^2 = 1, stored as angles theta (alpha = cos, beta = sin) so
normalization is exact.  Per generation every member is measured several
times, measured bit strings get a small classical mutation, and each
member's amplitudes rotate toward the best string found so far whenever
that best is strictly fitter than the member's own best observation.  The
best-ever solution is elitist.  Angles are clamped away from 0 and pi/2
so every bit stays reachable.

The run terminates once the best-ever circuit meets the satisfying cost
with full correctness, or after max_gen generations.  When the guiding
best stagnates for `restart_after` generations the amplitudes and
the guide are reset to the uniform superposition (the best-ever record is
kept); this catastrophe step stops the whole population from idling in an
exhausted attractor.

A generation is scored as one batch: all pop x measurements bit strings
are decoded at once, circuits are keyed by their non-wire placement
indices (wires change neither lambda nor cost), and only the circuits not
already in the run's cache are evaluated, as one stack.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .codec import codon_bits, decode, decode_indices
from .evaluate import (
    EvalResult,
    FitnessParams,
    GoalSpec,
    Score,
    evaluate_batch,
    evaluate_circuit,
    is_success,
)
from .gates import GateSet

THETA_MIN = 0.01
THETA_MAX = math.pi / 2 - 0.01
# Scores kept per run; the cache is a pure memo, so it is simply cleared when full.
CACHE_LIMIT = 1 << 16

RUN_CSV_HEADER = "gen,best_fitness,best_correctness,best_cost"


@dataclass(frozen=True)
class HqeaParams:
    fitness: FitnessParams
    pop_size: int = 20
    measurements: int = 10
    max_gen: int = 100
    delta_theta: float = 0.01 * math.pi
    mutation_prob: float = 0.02
    restart_after: int = 40
    seed: int = 0

    def __post_init__(self):
        if self.pop_size < 1 or self.measurements < 1 or self.max_gen < 1:
            raise ValueError("pop_size, measurements and max_gen must be at least 1")
        if not 0 <= self.mutation_prob <= 1:
            raise ValueError("mutation_prob must be a probability")
        if self.restart_after < 1:
            raise ValueError("restart_after must be at least 1")


@dataclass
class RunResult:
    success: bool
    best_circuit: list
    best_bits: np.ndarray
    best_eval: EvalResult
    generation_found: int | None
    generations_run: int
    history: list = field(default_factory=list)  # (gen, fitness, correctness, cost)

    def history_csv(self) -> str:
        lines = [RUN_CSV_HEADER]
        for gen, fit, corr, cost in self.history:
            lines.append(f"{gen},{fit!r},{corr!r},{cost}")
        return "\n".join(lines) + "\n"


@dataclass
class BatchStats:
    runs: int
    st: int
    as_mean: float
    ot: int | None
    results: list


def init_population(pop_size: int, n_bits: int) -> np.ndarray:
    """Uniform superposition: every amplitude pair at (1/sqrt2, 1/sqrt2)."""
    return np.full((pop_size, n_bits), math.pi / 4)


def observe(theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Measure each amplitude pair: bit = 1 with probability beta^2 = sin^2(theta)."""
    return (rng.random(theta.shape) < np.sin(theta) ** 2).astype(np.uint8)


def rotate_toward(theta: np.ndarray, bits: np.ndarray, delta: float) -> np.ndarray:
    """Rotate each amplitude pair by delta toward the given bit values, clamped."""
    step = np.where(bits == 1, delta, -delta)
    return np.clip(theta + step, THETA_MIN, THETA_MAX)


def evolve(goal: GoalSpec, gs: GateSet, max_gates: int, params: HqeaParams) -> RunResult:
    """Run the evolutionary loop until a satisfying circuit or max_gen generations."""
    if max_gates < 1:
        raise ValueError(f"the gate budget must be at least 1, got {max_gates}")
    m = goal.num_qubits
    table = gs.table(m)
    if len(table) < 2:
        raise ValueError(f"the gate set has no gate that fits on {m} qubit(s)")
    n_bits = max_gates * codon_bits(len(table))
    shape = (params.pop_size, params.measurements, n_bits)
    rng = np.random.default_rng(params.seed)
    pop = init_population(params.pop_size, n_bits)

    cache: dict[tuple, Score] = {}
    best_bits: np.ndarray | None = None     # best-ever by fitness (elitist record)
    best: Score | None = None
    guide_bits: np.ndarray | None = None    # rotation target, reset on restart
    guide_fitness = math.inf
    stagnant = 0
    history = []
    generation_found = None
    generations_run = 0

    for gen in range(1, params.max_gen + 1):
        generations_run = gen
        u = rng.random(shape)
        flips = rng.random(shape) < params.mutation_prob
        bits = ((u < (np.sin(pop) ** 2)[:, None, :]) ^ flips).astype(np.uint8).reshape(-1, n_bits)
        indices = decode_indices(bits, len(table))
        keys = [tuple(i for i in row if i) for row in indices.tolist()]
        first_row: dict[tuple, int] = {}
        for i, key in enumerate(keys):
            first_row.setdefault(key, i)
        scores = {key: cache.get(key) for key in first_row}
        new = [key for key, score in scores.items() if score is None]
        if new:
            _, fresh = evaluate_batch(indices[[first_row[key] for key in new]],
                                      table, goal, params.fitness)
            if len(cache) + len(new) > CACHE_LIMIT:
                cache.clear()
            for key, score in zip(new, fresh):
                scores[key] = cache[key] = score
        fitness = np.array([scores[key].fitness for key in keys]).reshape(shape[:2])

        # the first minimum in (c, t) order is where a strict-improvement scan stops
        first = int(np.argmin(fitness))
        top = scores[keys[first]]
        improved = top.fitness < guide_fitness
        if improved:
            guide_fitness = top.fitness
            guide_bits = bits[first].copy()
        if best is None or top.fitness < best.fitness:
            best = top
            best_bits = bits[first].copy()
        history.append((gen, best.fitness, best.correctness, best.allcost))
        if is_success(best, params.fitness):
            generation_found = gen
            break
        stagnant = 0 if improved else stagnant + 1
        if stagnant >= params.restart_after:
            pop = init_population(params.pop_size, n_bits)
            guide_bits = None
            guide_fitness = math.inf
            stagnant = 0
            continue
        if guide_bits is not None:
            behind = guide_fitness < fitness.min(axis=1)
            pop[behind] = rotate_toward(pop[behind], guide_bits, params.delta_theta)

    best_circuit = decode(best_bits, m, gs)
    return RunResult(
        success=generation_found is not None,
        best_circuit=best_circuit,
        best_bits=best_bits,
        best_eval=evaluate_circuit(best_circuit, goal, params.fitness),
        generation_found=generation_found,
        generations_run=generations_run,
        history=history,
    )


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("ORACLE_FORGE_THREADS", "1")))
    except ValueError:
        return 1


def _run_one(args) -> RunResult:
    goal, gs, max_gates, params = args
    return evolve(goal, gs, max_gates, params)


def run_batch(
    goal: GoalSpec,
    gs: GateSet,
    max_gates: int,
    params: HqeaParams,
    n_runs: int,
    base_seed: int | None = None,
) -> BatchStats:
    """Repeat evolve with seeds base_seed + i and aggregate ST / AS / OT."""
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if base_seed is None:
        base_seed = params.seed
    jobs = [(goal, gs, max_gates, replace(params, seed=base_seed + i)) for i in range(n_runs)]
    workers = min(_worker_count(), n_runs)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, jobs))
    else:
        results = [_run_one(j) for j in jobs]
    successes = [r for r in results if r.success]
    st = len(successes)
    as_mean = sum(r.generation_found for r in successes) / st if st else 0.0
    ot = None
    if goal.optimal_cost is not None:
        ot = sum(1 for r in successes if r.best_eval.allcost == goal.optimal_cost)
    return BatchStats(runs=n_runs, st=st, as_mean=as_mean, ot=ot, results=results)
