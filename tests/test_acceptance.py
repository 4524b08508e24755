"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""
import math
import time

import numpy as np
import pytest

import oracle_forge as of
from oracle_forge.brute import min_cost_search
from oracle_forge.cli import main as cli_main
from oracle_forge.codec import codon_bits, decode, decode_codon
from oracle_forge.engine import (
    HqeaParams,
    observe,
    rotate_toward,
    run_batch,
)
from oracle_forge.evaluate import FitnessParams, circuit_unitary, correctness, fitness_value
from oracle_forge.gates import case_count, default_gate_set
from oracle_forge.kron_apply import StructuredOperator, apply_structured, embed_dense
from oracle_forge.linalg import MulCounter, identity, is_unitary, mat_mul_naive
from oracle_forge.targets import builtin

GS = default_gate_set()


def report(criterion, desc, ok):
    print(f"\n[criterion {criterion}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: {desc}"


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_criterion_1_kernel_equivalence():
    rng = np.random.default_rng(2024)
    dims = [1, 2, 4, 8]
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        m, n, k = (int(rng.choice(dims)) for _ in range(3))
        op = StructuredOperator(m, random_matrix(rng, n), k)
        b = random_matrix(rng, m * n * k)
        fast = apply_structured(op, b)
        ref = mat_mul_naive(embed_dense(op), b)
        worst = max(worst, float(np.abs(fast - ref).max()))
    elapsed = time.perf_counter() - t0
    report(1, f"kernel equivalence, 200 cases (max err {worst:.2e}, {elapsed:.1f}s)",
           worst <= 1e-12 and elapsed < 10.0)


def test_criterion_2_complexity_counts():
    rng = np.random.default_rng(7)
    ok = True
    # exact instrumented counts and the (8,2,8) ratio
    for m, n, k in [(1, 2, 1), (2, 2, 2), (4, 4, 1), (2, 4, 2), (8, 2, 8)]:
        op = StructuredOperator(m, random_matrix(rng, n), k)
        b = random_matrix(rng, m * n * k)
        sc, nc = MulCounter(), MulCounter()
        apply_structured(op, b, counter=sc)
        mat_mul_naive(embed_dense(op), b, counter=nc)
        ok &= sc.count == m * m * n ** 3 * k * k
        ok &= nc.count == (m * n * k) ** 3
        if (m, n, k) == (8, 2, 8):
            ok &= nc.count // sc.count == 64 and sc.count == 32768
    # the M+K > 1.66N rule tracks the asymptotic O(d^2.376) baseline
    pows = [1, 2, 4, 8, 16, 32, 64]
    for m in pows:
        for n in pows:
            for k in pows:
                if m * n * k > 64:
                    continue
                lhs = math.log2(m) + math.log2(k)
                rhs = 1.66 * math.log2(n)
                if abs(lhs - rhs) < 1e-9:
                    continue
                op = StructuredOperator(m, random_matrix(rng, n), k)
                b = random_matrix(rng, m * n * k)
                sc = MulCounter()
                apply_structured(op, b, counter=sc)
                baseline = (m * n * k) ** 2.376
                ok &= of.speedup_predicted(m, n, k) == (baseline > sc.count)
    report(2, "complexity claim: exact counts, ratio 64, predicate sign", ok)


def test_criterion_3_encoding():
    ok = True
    for n_cases in range(1, 65):
        k = codon_bits(n_cases)
        counts = [0] * n_cases
        for s in range(1 << k):
            counts[decode_codon(s, n_cases, k)] += 1
        lo = (1 << k) // n_cases
        hi = -((1 << k) // -n_cases)
        ok &= all(c in (lo, hi) for c in counts) and sum(counts) == 1 << k
    circuit = decode(np.zeros(8 * codon_bits(case_count(3, GS)), dtype=np.uint8), 3, GS)
    ok &= all(p.is_wire for p in circuit)
    report(3, "codon preimage balance for N <= 64; all-zero decodes to wires", ok)


def test_criterion_4_evaluator_exactness():
    ok = True
    for name in ("swap", "entangle2", "entangle3", "controlled_s"):
        goal = builtin(name)
        ok &= abs(correctness(goal.matrix, goal) - 1.0) <= 1e-12
    goal = builtin("entangle2")
    ok &= abs(correctness(identity(4), goal) - math.sqrt(2) / 4) <= 1e-9
    rng = np.random.default_rng(99)
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        g = int(rng.integers(1, 9))
        k = codon_bits(case_count(m, GS))
        lam = circuit_unitary(decode(rng.integers(0, 2, g * k, dtype=np.uint8), m, GS), m)
        ok &= is_unitary(lam, 1e-10)
    report(4, "correctness exactness and unitarity over 1000 random circuits", ok)


def test_criterion_5_brute_force_optimal_costs():
    t0 = time.perf_counter()
    e2 = min_cost_search(builtin("entangle2"), 3, GS)
    sw = min_cost_search(builtin("swap"), 3, GS)
    e3 = min_cost_search(builtin("entangle3"), 3, GS)
    elapsed = time.perf_counter() - t0
    ok = e2.min_cost == 3 and sw.min_cost == 6 and e3.min_cost == 5 and elapsed < 60
    # controlled-S: enumeration budget reaches 5 gates; record the bound
    cs = min_cost_search(builtin("controlled_s"), 5, GS)
    bound = ("no realization within 5 gates" if cs.min_cost is None
             else f"min cost {cs.min_cost}")
    report(5, f"optimal costs 3/6/5 confirmed ({elapsed:.1f}s); controlled-S: {bound}", ok)


def test_criterion_6_entangle2_synthesis():
    t0 = time.perf_counter()
    params = HqeaParams(fitness=FitnessParams(satcost=6, award=1, punish=20),
                        max_gen=100, seed=100)
    stats = run_batch(builtin("entangle2"), GS, 6, params, 20)
    elapsed = time.perf_counter() - t0
    ok = stats.st >= 16 and elapsed < 120
    report(6, f"entangle2 satcost 6: ST={stats.st}/20 AS={stats.as_mean:.1f} "
              f"({elapsed:.0f}s)", ok)


def test_criterion_7_punish_threshold():
    s = math.sqrt(2) / 4
    fp = FitnessParams(satcost=6, award=1, punish=1)
    empty = fitness_value(0, s, fp)
    best_correct = fitness_value(3, 1.0, fp)  # cheapest possible correct circuit
    analytic = empty < best_correct and abs(empty - (-6 + (1 - s))) <= 1e-12
    params = HqeaParams(fitness=fp, max_gen=100, seed=100)
    stats = run_batch(builtin("entangle2"), GS, 6, params, 20)
    ok = analytic and stats.st <= 2
    report(7, f"punish=1 pathology: empty fitness {empty:.4f} < {best_correct}; "
              f"ST={stats.st}/20", ok)


def test_criterion_8a_entangle3_benchmark():
    t0 = time.perf_counter()
    params = HqeaParams(fitness=FitnessParams(satcost=8, award=1, punish=20),
                        max_gen=200, seed=100)
    stats = run_batch(builtin("entangle3"), GS, 8, params, 20)
    elapsed = time.perf_counter() - t0
    ok = stats.st >= 10 and elapsed < 900
    report("8a", f"entangle3 satcost 8: ST={stats.st}/20 AS={stats.as_mean:.1f} "
                 f"({elapsed:.0f}s)", ok)


def test_criterion_8b_controlled_s_benchmark():
    # Known-red: with this gate catalog the cheapest realization costs 10
    # (8 gates), so its fitness 0 is strictly worse than cheap near-miss
    # circuits and the fitness-elitist best can never satisfy the
    # termination rule.  Kept as specified; see the decisions ledger.
    t0 = time.perf_counter()
    params = HqeaParams(fitness=FitnessParams(satcost=10, award=1, punish=100),
                        max_gen=500, seed=100)
    stats = run_batch(builtin("controlled_s"), GS, 8, params, 20)
    elapsed = time.perf_counter() - t0
    ok = stats.st >= 10 and elapsed < 900
    report("8b", f"controlled_s satcost 10: ST={stats.st}/20 AS={stats.as_mean:.1f} "
                 f"({elapsed:.0f}s)", ok)


def test_criterion_9_determinism(tmp_path, capsys):
    args = ["synth", "--goal", "entangle2", "--satcost", "6", "--g", "6",
            "--punish", "20", "--seed", "13"]
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    c1 = cli_main(args + ["--out-dir", str(d1)])
    c2 = cli_main(args + ["--out-dir", str(d2)])
    capsys.readouterr()
    same_json = (d1 / "circuit.json").read_bytes() == (d2 / "circuit.json").read_bytes()
    same_csv = (d1 / "generations.csv").read_bytes() == (d2 / "generations.csv").read_bytes()
    report(9, "identical seed gives byte-identical circuit JSON and CSV",
           c1 == c2 and same_json and same_csv)


def test_criterion_10_qea_statistics():
    rng = np.random.default_rng(31)
    ok = True
    for theta in (0.4, math.pi / 4, 1.1):
        n = 100_000
        ones = int(observe(np.full(n, theta), rng).sum())
        p = math.sin(theta) ** 2
        sigma = math.sqrt(n * p * (1 - p))
        ok &= abs(ones - n * p) <= 3 * sigma
    theta = np.full(64, math.pi / 4)
    for _ in range(10_000):
        bits = rng.integers(0, 2, 64, dtype=np.uint8)
        theta = rotate_toward(theta, bits, 0.01 * math.pi)
        ok &= bool(np.abs(np.cos(theta) ** 2 + np.sin(theta) ** 2 - 1).max() <= 1e-12)
    report(10, "observation frequencies within 3 sigma; normalization after 1e4 rotations", ok)
