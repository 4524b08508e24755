"""Evolve a Bell-state preparation circuit from its unitary alone.

The target is CNOT x (H (x) I): the circuit that entangles two qubits.
The search only ever sees the 4x4 matrix; it discovers the H-then-CNOT
structure (or an equivalent) on its own, typically in about a dozen
generations.
"""
from oracle_forge.cli import render_ascii
from oracle_forge.engine import HqeaParams, evolve
from oracle_forge.evaluate import FitnessParams
from oracle_forge.gates import default_gate_set
from oracle_forge.targets import builtin

goal = builtin("entangle2")
gs = default_gate_set()

params = HqeaParams(
    fitness=FitnessParams(satcost=6, award=1, punish=20),
    max_gen=100,
    seed=7,
)
result = evolve(goal, gs, max_gates=6, params=params)

print(f"success: {result.success} (generation {result.generation_found})")
print(f"cost {result.best_eval.allcost}, correctness {result.best_eval.correctness:.12f}")
print()
print(render_ascii(result.best_circuit, goal.num_qubits))
print()
print("generation  best_fitness  best_correctness  best_cost")
for gen, fit, corr, cost in result.history:
    print(f"{gen:>10}  {fit:>12.4f}  {corr:>16.6f}  {cost:>9}")
