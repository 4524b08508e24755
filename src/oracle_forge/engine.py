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
are decoded at once, each row of placement indices is keyed by its exact
base-N number (see `distinct_rows`), and each distinct row of the
generation is scored once, in one `evaluate_batch` call that returns score
arrays.  No score outlives its generation.
"""
from __future__ import annotations

import math
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
        for name in ("pop_size", "measurements", "max_gen", "restart_after", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.pop_size < 1 or self.measurements < 1 or self.max_gen < 1:
            raise ValueError("pop_size, measurements and max_gen must be at least 1")
        if not 0 <= self.mutation_prob <= 1:
            raise ValueError("mutation_prob must be a probability")
        if not 0 <= self.delta_theta < math.inf:
            raise ValueError(f"delta_theta must be finite and non-negative, got {self.delta_theta}")
        if self.restart_after < 1:
            raise ValueError("restart_after must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class RunResult:
    success: bool
    best_circuit: list
    best_bits: np.ndarray
    best_eval: EvalResult
    generation_found: int | None
    generations_run: int
    history: list = field(default_factory=list)  # (gen, fitness, correctness, cost)


@dataclass
class BatchStats:
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


def distinct_rows(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each distinct row of `rows`, and each row's distinct index.

    Rows of digits in [0, n) are keyed by their base-n numbers, exact in
    int64 for every n and row length: a row is folded in a word of c digits
    at a time, and before each later word the key is replaced by its dense
    rank, which is below the row count B, so with B * n^c < 2^63 no key
    wraps.  The distinct rows come in key order, which is the rows'
    lexicographic order.
    """
    b, g = rows.shape
    c = 1  # digits a word: the most, up to g, with b * n^c < 2^63
    while c < g and b * n ** (c + 1) < 1 << 63:
        c += 1
    place = n ** np.arange(c - 1, -1, -1, dtype=np.int64)
    rank = np.zeros(b, dtype=np.int64)
    new = np.empty(b, dtype=bool)
    new[:1] = True
    for start in range(0, g, c):
        word = rows[:, start:start + c]
        key = rank * n ** word.shape[1] + word @ place[c - word.shape[1]:]
        # a stable sort, so that each key's first row comes first
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        rank[order] = np.cumsum(new) - 1
    return order[new], rank


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

    best_bits: np.ndarray | None = None     # best-ever by fitness (elitist record)
    best: Score | None = None
    guide_bits: np.ndarray | None = None    # rotation target, replaced after a restart
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
        rows = decode_indices(bits, len(table))
        first_row, inverse = distinct_rows(rows, len(table))
        ufit, ucorr, ucost = evaluate_batch(rows[first_row], table, goal, params.fitness)
        fitness = ufit[inverse].reshape(shape[:2])

        # the first minimum in (c, t) order is where a strict-improvement scan stops
        first = int(np.argmin(fitness))
        j = inverse[first]
        # Python numbers, so that generations.csv prints them as the scalar path does
        top = Score(float(ufit[j]), float(ucorr[j]), int(ucost[j]))
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
            guide_fitness = math.inf
            stagnant = 0
            continue
        # guide_fitness is inf at the start and after a restart, so a guide is set
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


def run_batch(goal: GoalSpec, gs: GateSet, max_gates: int, params: HqeaParams,
              n_runs: int) -> BatchStats:
    """Repeat evolve with seeds params.seed + i and aggregate ST / AS / OT."""
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    results = [evolve(goal, gs, max_gates, replace(params, seed=params.seed + i))
               for i in range(n_runs)]
    successes = [r for r in results if r.success]
    st = len(successes)
    as_mean = sum(r.generation_found for r in successes) / st if st else 0.0
    ot = None
    if goal.optimal_cost is not None:
        ot = sum(1 for r in successes if r.best_eval.allcost == goal.optimal_cost)
    return BatchStats(st=st, as_mean=as_mean, ot=ot, results=results)
