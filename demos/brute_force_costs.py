"""Exhaustively confirm the minimal costs the evolutionary runs converge to.

Enumerating every gate sequence up to three gates settles the minimum
cost for the small benchmarks: 3 for the two-qubit entangler, 6 for SWAP
(three alternating CNOTs) and 5 for the three-qubit entangler.  The
controlled-phase target is stubborn: no sequence of up to five gates
realizes it with this catalog, and the cheapest realization within eight
gates costs 10 (two CNOTs and six one-qubit phase gates).  A search to nine
gates (see tests/test_brute.py) proves 10 is the optimum, since any cheaper
circuit has at most nine gates.

The demo raises if a search finds another minimum, so a run that
completes has confirmed each of them.
"""
from oracle_forge.brute import min_cost_search
from oracle_forge.cli import render_ascii
from oracle_forge.gates import default_gate_set
from oracle_forge.targets import builtin

gs = default_gate_set()

# (goal, search depth, whether a realization within that depth exists)
for name, depth, reachable in [("entangle2", 3, True), ("swap", 3, True),
                               ("entangle3", 3, True), ("controlled_s", 5, False),
                               ("controlled_s", 8, True)]:
    goal = builtin(name)
    report = min_cost_search(goal, depth, gs)
    print(f"=== {name} (search depth {depth}, {report.circuits_examined} circuits) ===")
    if report.min_cost is None:
        print(f"no realization within {depth} gates")
    else:
        print(f"minimum cost: {report.min_cost}")
        print(render_ascii(report.witness, goal.num_qubits))
    print()
    expected = goal.optimal_cost if reachable else None
    if report.min_cost != expected:
        raise SystemExit(f"{name} within {depth} gates: minimum {report.min_cost}, "
                         f"expected {expected}")
