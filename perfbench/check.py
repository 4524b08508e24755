"""Independent output checks.

Every unitary here is a plain numpy product of dense `I (x) gate (x) I`
embeddings, never `apply_structured`, so a fault in the structured kernel
or the evaluator cannot hide itself.
"""
from __future__ import annotations

import numpy as np

from oracle_forge.kron_apply import StructuredOperator, embed_dense

TOL = 1e-9


def dense_unitary(circuit, m: int) -> np.ndarray:
    """Ordered product of the dense embeddings of the circuit's non-wire gates."""
    u = np.eye(1 << m, dtype=complex)
    for p in circuit:
        if not p.is_wire:
            op = StructuredOperator(1 << p.top, p.matrix, 1 << (m - p.top - p.span))
            u = embed_dense(op) @ u
    return u


def _corr(lam: np.ndarray, goal) -> float:
    return float(abs(np.sum(goal.matrix.conj() * lam))) / goal.dim


def synth(result, goal, fp) -> list[str]:
    """Recompute the best circuit's lambda, correctness, cost and fitness; recheck success."""
    ev = result.best_eval
    lam = dense_unitary(result.best_circuit, goal.num_qubits)
    corr = _corr(lam, goal)
    cost = sum(p.cost for p in result.best_circuit)
    fitness = fp.award * (cost - fp.satcost) + fp.punish * (1.0 - corr)
    problems = []
    if np.abs(lam - ev.lambda_matrix).max() > TOL:
        problems.append("best circuit's lambda differs from the dense product")
    if abs(corr - ev.correctness) > TOL:
        problems.append(f"correctness {ev.correctness!r}, dense {corr!r}")
    if cost != ev.allcost:
        problems.append(f"cost {ev.allcost}, recomputed {cost}")
    if abs(fitness - ev.fitness) > TOL:
        problems.append(f"fitness {ev.fitness!r}, recomputed {fitness!r}")
    satisfied = corr >= 1.0 - fp.eps and cost <= fp.satcost
    if result.success != satisfied:
        problems.append(f"success {result.success} but the dense check says {satisfied}")
    if result.success != (result.generation_found == result.generations_run):
        problems.append("generation_found does not match the stopping generation")
    return problems


def brute(report, goal, max_gates: int, expected) -> list[str]:
    """Compare with the hand-written answer and re-verify the witness densely."""
    problems = []
    if report.min_cost != expected:
        problems.append(f"min cost {report.min_cost}, expected {expected}")
    if (report.witness is None) != (report.min_cost is None):
        problems.append("witness and min cost disagree on whether a match exists")
    if report.witness is not None:
        corr = _corr(dense_unitary(report.witness, goal.num_qubits), goal)
        cost = sum(p.cost for p in report.witness)
        if corr < 1.0 - 1e-6:
            problems.append(f"witness correctness {corr!r} by the dense product")
        if cost != report.min_cost or len(report.witness) > max_gates:
            problems.append(f"witness of {len(report.witness)} gates costs {cost}")
    return problems
