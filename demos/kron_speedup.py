"""How much does the structured kernel save?

Multiplying by an operator of the form I_m (x) A_n (x) I_k block-wise
costs m^2 n^3 k^2 scalar multiplications instead of the (mnk)^3 of a
naive dense product.  This sweep instruments both paths and prints the
measured counts next to the M + K > 1.66 N prediction rule.
"""
from dataclasses import astuple, fields

from oracle_forge.cli import csv_text, report
from oracle_forge.kron_apply import BenchRow, benchmark_sweep

rows = benchmark_sweep(max_total=64)

report(csv_text([[f.name for f in fields(BenchRow)], *map(astuple, rows)]))

print()
print("Largest win in the sweep:")
best = max(rows, key=lambda r: r.naive_count / r.structured_count)
print(f"  (m={best.m}, n={best.n}, k={best.k}): "
      f"{best.naive_count} vs {best.structured_count} multiplications "
      f"({best.naive_count // best.structured_count}x fewer)")

print()
print("The flagship case (m=8, n=2, k=8): a single two-qubit gate on a")
print("seven-qubit register costs 32768 multiplications block-wise versus")
print("2097152 dense -- the same 64x ratio the closed forms give.")
