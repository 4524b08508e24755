"""Why a weak error penalty makes synthesis fail outright.

The fitness of a circuit is award*(cost - satcost) + punish*(1 - correctness).
With satcost 6 the empty circuit scores -6 + punish*(1 - sqrt(2)/4) against
the two-qubit entangler, while the best correct circuit (cost 3) scores -3.
Below punish = 3 / (1 - sqrt(2)/4) ~ 4.64 the empty circuit wins and the
search converges to doing nothing.  The batch statistics flip from 0/20 to
20/20 as punish crosses that threshold.
"""
import math

from oracle_forge.engine import HqeaParams, run_batch
from oracle_forge.evaluate import FitnessParams, fitness_value
from oracle_forge.gates import default_gate_set
from oracle_forge.targets import builtin

goal = builtin("entangle2")
gs = default_gate_set()
corr_empty = math.sqrt(2) / 4
threshold = 3 / (1 - corr_empty)
print(f"analytic threshold: punish = {threshold:.4f}\n")

print("punish  empty_fitness  best_correct_fitness  ST/10  AS")
for punish in (1, 5, 20, 100):
    fp = FitnessParams(satcost=6, award=1, punish=punish)
    params = HqeaParams(fitness=fp, max_gen=100, seed=400)
    stats = run_batch(goal, gs, 6, params, n_runs=10)
    print(f"{punish:>6}  {fitness_value(0, corr_empty, fp):>13.4f}  "
          f"{fitness_value(3, 1.0, fp):>20.4f}  {stats.st:>5}  {stats.as_mean:>5.1f}")
