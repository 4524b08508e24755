"""Exhaustive minimal-cost circuit search, used as an independent verifier.

Enumerates all gate sequences up to a length budget (wires excluded: they
change neither the unitary nor the cost) and reports the cheapest circuit
matching the goal up to global phase.  Cost-based pruning is admissible
because gate costs are non-negative.

The search is a depth-first walk in which only the top `max_gates - L`
levels are visited node by node.  The last L levels below each prefix are
scored at once by a suffix block built once per query: for every gate
sequence s of length 1..L, in DFS preorder, the row W_s = (O_s)^T conj(G),
flattened, so that the correctness of prefix-then-s is
|W_s . vec(U_prefix)| / 2^m.  The walk's prune and best-update rules are then
replayed over the block with array operations, so the result, the witness
and the number of circuits examined are those of the node-by-node walk.
A node whose correctness lies within rounding (about 1e-12) of `1 - eps`
may be decided differently, because the block sums the products in another
order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .evaluate import GoalSpec
from .gates import GateSet
from .kron_apply import StructuredOperator, apply_structured
from .linalg import identity

# Memory for the suffix block's rows; fixes its depth L for a given qubit
# count and gate set.
BLOCK_BYTES = 1 << 20


@dataclass
class SearchReport:
    min_cost: int | None
    witness: list | None
    circuits_examined: int

    def to_json(self) -> dict:
        return {
            "min_cost": self.min_cost,
            "witness": None if self.witness is None
            else [{"gate": p.name, "top": p.top} for p in self.witness],
            "circuits_examined": self.circuits_examined,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def node_count(n_gates: int, max_gates: int) -> int:
    """Sequences of length 0..max_gates over n_gates non-wire placements."""
    return sum(n_gates ** d for d in range(max_gates + 1))


def block_depth(n_gates: int, dim: int, max_gates: int) -> int:
    """Largest L <= max_gates whose suffix block fits in BLOCK_BYTES."""
    if n_gates == 0:
        return 0
    row_bytes = 16 * dim * dim  # one complex128 row of dim^2 entries
    depth = rows = 0
    while depth < max_gates:
        rows += n_gates ** (depth + 1)
        if rows * row_bytes > BLOCK_BYTES:
            break
        depth += 1
    return depth


class SuffixBlock:
    """Every gate sequence of length 1..depth in DFS preorder, scored as one matrix.

    `rows[i]` is W_s flattened, `costs[i]` the cumulative cost of s, and
    `gate[i]` / `parent[i]` the last gate of s and the preorder index of s
    without it (-1 for the empty sequence).
    """

    def __init__(self, operators, op_costs, goal_conj: np.ndarray, depth: int):
        n, dim = len(operators), goal_conj.shape[0]
        subtree = [sum(n ** j for j in range(r + 1)) for r in range(depth + 1)]
        size = subtree[depth] - 1
        self.rows = np.empty((size, dim * dim), dtype=complex)
        self.costs = np.empty(size, dtype=np.int64)
        self.gate = np.empty(size, dtype=np.int64)
        self.parent = np.empty(size, dtype=np.int64)
        gates = np.arange(n)
        # W_(g, t) = (O_t O_g)^T conj(G) = O_g^T W_t: prepending a gate is one
        # structured product with its transpose
        transposed = [StructuredOperator(op.m, op.gate.T, op.k) for op in operators]
        level = goal_conj[None]
        pos, cost = np.array([-1]), np.zeros(1, dtype=np.int64)
        for d in range(1, depth + 1):
            # both build orders list a depth's sequences lexicographically, the
            # first gate most significant: (g, t) is row g * n^(d-1) + t, and
            # s + (g,) is row s * n + g
            level = np.concatenate([apply_structured(op, level) for op in transposed])
            # preorder: s + (g,) follows s and the subtrees of s + (0,) .. s + (g-1,)
            child = (pos[:, None] + 1 + gates * subtree[depth - d]).ravel()
            self.rows[child] = level.reshape(-1, dim * dim)
            self.costs[child] = (cost[:, None] + op_costs).ravel()
            self.gate[child] = np.tile(gates, len(pos))
            self.parent[child] = np.repeat(pos, n)
            pos, cost = child, self.costs[child]
        self.sorted_costs = np.sort(self.costs)
        self.dim = dim

    def __len__(self) -> int:
        return len(self.costs)

    def sequence(self, i: int) -> tuple:
        """The gate indices of the i-th sequence in preorder."""
        seq = []
        while i >= 0:
            seq.append(int(self.gate[i]))
            i = int(self.parent[i])
        return tuple(reversed(seq))

    def replay(self, u: np.ndarray, threshold: float, bound):
        """The walk below a prefix with unitary u, replayed over the block.

        `bound` is the current best cost minus the prefix cost (None while
        nothing matched).  A node is examined iff its cost is below the best
        found before it in preorder.  Returns the number of
        nodes examined and the preorder index of the node that lowers the
        best, or None.
        """
        corr = np.abs(self.rows @ u.ravel()) / self.dim
        hits = np.flatnonzero(corr >= threshold)
        if bound is None and hits.size == 0:
            examined = len(self)
        elif hits.size == 0:
            examined = int(np.searchsorted(self.sorted_costs, bound))
        else:
            # the best before node i: the bound, lowered by every earlier hit
            limit = np.full(len(self) + 1, np.iinfo(np.int64).max if bound is None else bound)
            limit[hits + 1] = np.minimum(limit[hits + 1], self.costs[hits])
            limit = np.minimum.accumulate(limit)
            examined = int(np.count_nonzero(self.costs < limit[:-1]))
        if hits.size == 0:
            return examined, None
        hit_costs = self.costs[hits]
        first = int(np.argmin(hit_costs))  # argmin returns the first minimum
        if bound is not None and hit_costs[first] >= bound:
            return examined, None
        return examined, int(hits[first])


def min_cost_search(
    goal: GoalSpec,
    max_gates: int,
    gs: GateSet,
    eps: float = 1e-6,
    budget: int = 10 ** 8,
) -> SearchReport:
    if max_gates < 0:
        raise ValueError(f"the gate budget must be non-negative, got {max_gates}")
    if not eps > 0:
        raise ValueError("eps must be positive")
    table = gs.table(goal.num_qubits)
    placements = table.cases[1:]  # index 0 is the wire
    operators = table.operators[1:]
    op_costs = table.costs[1:]
    step = op_costs.tolist()
    total = node_count(len(placements), max_gates)
    if total > budget:
        raise ValueError(f"search would examine {total} circuits, over the budget of {budget}")

    goal_conj = goal.matrix.conj()
    dim = goal.dim
    threshold = 1.0 - eps
    depth = block_depth(len(placements), dim, max_gates)
    block = SuffixBlock(operators, op_costs, goal_conj, depth) if depth else None
    walk_depth = max_gates - depth

    best_cost: int | None = None
    best_seq: tuple | None = None
    examined = 0
    # (cost, gate indices, unitary before the last gate); popping a node
    # applies its last gate, so pruned nodes cost no product
    stack = [(0, (), identity(dim))]
    while stack:
        cost, seq, u = stack.pop()
        if best_cost is not None and cost >= best_cost:
            continue
        if seq:
            u = apply_structured(operators[seq[-1]], u)
        examined += 1
        corr = abs(np.sum(goal_conj * u)) / dim
        if corr >= threshold and (best_cost is None or cost < best_cost):
            best_cost, best_seq = cost, seq
        if len(seq) < walk_depth:
            stack.extend((cost + step[i], seq + (i,), u) for i in reversed(range(len(step))))
        elif block is not None:
            bound = None if best_cost is None else best_cost - cost
            n, hit = block.replay(u, threshold, bound)
            examined += n
            if hit is not None:
                best_cost = cost + int(block.costs[hit])
                best_seq = seq + block.sequence(hit)

    witness = None if best_seq is None else [placements[i] for i in best_seq]
    return SearchReport(min_cost=best_cost, witness=witness, circuits_examined=examined)
