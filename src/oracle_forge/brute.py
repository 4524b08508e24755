"""Exhaustive minimal-cost circuit search, used as an independent verifier.

Enumerates all gate sequences up to a length budget (wires excluded: they
change neither the unitary nor the cost) and reports the cheapest circuit
matching the goal up to global phase.  Cost-based pruning is admissible
because gate costs are non-negative.

The search is a depth-first walk on V = O_seq G^dag, the operator of a
node's gate sequence times the goal's adjoint: the root is G^dag and a
node's correctness |tr V| / 2^m.  Only the top `max_gates - L` levels are
walked.  Each node's V is its parent's times its last placement's block
step (see `kron_apply.BlockStep`), written into a new array so that the
parent's stays whole for its siblings; a block step equals the structured
product bit for bit up to the sign of an exact zero, which no correctness
sees.  A node's correctness followed by a sequence s is
|vec(O_s^T) . vec(V)| / 2^m, and a suffix block holds vec(O_s^T) for every
s of 0..L gates in DFS preorder.  It holds no goal, so it is built once per
placement table and L and kept on the table.

The walk's last c levels are scored a clan at a time.  A node c levels above
the walk's last level (the clan's root) builds all of its descendants down
to that level as stacks, one level at a time with one block step per
placement on the whole level, and scores every leaf with one product with
the block.  Its inner nodes are then walked in preorder, and each
last-level family (the children of one inner node) is scored from its
columns of that product: a family with no match anywhere is counted in one
step; otherwise each live child is counted on its own, one whose column
matches by replaying the walk's prune and best-update rules over that
column with array operations.  Leaves below a pruned node are computed but
never counted, so the result, the witness and the number of circuits
examined are those of the node-by-node walk.  c is the largest number of
walk levels whose stacks and leaf product each fit in BLOCK_BYTES: 2 on two
and three qubits with the default gates, 1 on four.
Both traces sum in another order than `evaluate.correctness`, so a node
within rounding (about 1e-12) of `1 - eps` may be decided differently from
`evaluate_circuit`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .evaluate import FitnessParams, GoalSpec, require_eps
from .gates import GateSet, PlacementTable
from .kron_apply import StructuredOperator, block_step, step_product
from .kron_apply import apply_structured  # noqa: F401  perfbench/tracing.py wraps it here
from .linalg import identity

# Memory for the suffix block's rows of 1..L gates, which fixes its depth L
# for a given qubit count and gate set (the empty sequence's row is one
# more), and again for a clan's stacks and for its leaves' block product.
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


def node_count(n_gates: int, max_gates: int, stop: int | None = None) -> int:
    """Sequences of length 0..max_gates over n_gates non-wire placements,
    or the first partial sum above `stop` once one is."""
    total = 0
    for d in range(max_gates + 1):
        total += n_gates ** d
        if stop is not None and total > stop:
            break
    return total


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


def expand(steps, level: np.ndarray) -> np.ndarray:
    """Every block step applied to the whole stack `level`, step-major: matrix
    g * len(level) + i of the result is step g applied to level[i]."""
    b = len(level)
    out = np.empty((len(steps) * b,) + level.shape[1:], dtype=complex)
    term = np.empty(level.shape, dtype=complex)
    for g, step in enumerate(steps):
        step_product(step, level, term, out[g * b:(g + 1) * b])
    return out


def clan_depth(n_gates: int, dim: int, walk_depth: int, block_rows: int) -> int:
    """Largest c <= walk_depth such that a clan's c levels below its root,
    as stacks, and its leaves' product with a block of `block_rows` rows
    each fit in BLOCK_BYTES."""
    # the stacks hold as many matrices as a block of depth c has rows of 1..c gates
    depth = block_depth(n_gates, dim, walk_depth)
    while depth and block_rows * n_gates ** depth * 16 > BLOCK_BYTES:
        depth -= 1
    return depth


class SuffixBlock:
    """Every gate sequence of length 0..depth in DFS preorder, as one matrix.

    `rows[i]` is vec(O_s^T) for the i-th sequence s (row 0 the empty one,
    vec(I)), `costs[i]` the cumulative cost of s, and `gate[i]` / `parent[i]`
    the last gate of s and the preorder index of s without it (-1 for the
    empty sequence).  The block depends only on the placement table and depth.
    """

    def __init__(self, table: PlacementTable, depth: int):
        operators, op_costs = table.operators[1:], table.costs[1:]
        n, dim = len(operators), table.cols.shape[1]  # cols holds 2^m rows per placement
        size = node_count(n, depth)
        self.rows = np.empty((size, dim * dim), dtype=complex)
        self.costs = np.empty(size, dtype=np.int64)
        self.gate = np.empty(size, dtype=np.int64)
        self.parent = np.empty(size, dtype=np.int64)
        level = identity(dim)[None]
        self.rows[0], self.costs[0], self.gate[0], self.parent[0] = level.ravel(), 0, -1, -1
        gates = np.arange(n)
        # (O_t O_g)^T = O_g^T O_t^T: prepending a gate is one block step of its
        # transpose, applied to the whole level's stack
        steps = [block_step(StructuredOperator(op.m, op.gate.T, op.k), dim) for op in operators]
        pos = np.zeros(1, dtype=np.int64)
        for d in range(1, depth + 1):
            # both build orders list a depth's sequences lexicographically, the
            # first gate most significant: (g, t) is row g * n^(d-1) + t, and
            # s + (g,) is row s * n + g
            level = expand(steps, level)
            # preorder: s + (g,) follows s and the subtrees of s + (0,) .. s + (g-1,)
            child = (pos[:, None] + 1 + gates * node_count(n, depth - d)).ravel()
            self.rows[child] = level.reshape(-1, dim * dim)
            self.costs[child] = (self.costs[pos][:, None] + op_costs).ravel()
            self.gate[child] = np.tile(gates, len(pos))
            self.parent[child] = np.repeat(pos, n)
            pos = child
        self.sorted_costs = np.sort(self.costs)

    def __len__(self) -> int:
        return len(self.costs)

    def sequence(self, i: int) -> tuple:
        """The gate indices of the i-th sequence in preorder."""
        seq = []
        while i > 0:
            seq.append(int(self.gate[i]))
            i = int(self.parent[i])
        return tuple(reversed(seq))

    def replay(self, corr: np.ndarray, threshold: float, bound):
        """The walk below and at a node, replayed over the block.

        `corr[i]` is the correctness of the node followed by sequence i, and
        `bound` the current best cost minus the node's cost (None while
        nothing matched).  A node is examined iff its cost is below the best
        found before it in preorder.  Returns the number of nodes examined
        and the preorder index of the node that lowers the best, or None.
        """
        hits = np.flatnonzero(corr >= threshold)
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
    eps: float = FitnessParams.eps,
    budget: int = 10 ** 8,
) -> SearchReport:
    if max_gates < 0:
        raise ValueError(f"the gate budget must be non-negative, got {max_gates}")
    if budget < 0:
        raise ValueError(f"the circuit budget must be non-negative, got {budget}")
    require_eps(eps)
    table = gs.table(goal.num_qubits)
    placements = table.cases[1:]  # index 0 is the wire
    steps = table.steps[1:]
    n = len(steps)
    if node_count(n, max_gates, stop=budget) > budget:
        raise ValueError(f"over the circuit budget: the search would examine more than "
                         f"{budget} circuits")

    dim = goal.dim
    threshold = 1.0 - eps
    depth = block_depth(n, dim, max_gates)
    block = table.kept((SuffixBlock, depth), lambda: SuffixBlock(table, depth))
    walk_depth = max_gates - depth
    clan = clan_depth(n, dim, walk_depth, len(block))

    # each clan level's costs relative to the clan's root: node i of level d
    # is the sequence g_1 .. g_d with i = g_1 + g_2 n + .. + g_d n^(d-1), the
    # order in which the levels' stacks are built
    rel_costs = [np.zeros(1, dtype=np.int64)]
    for _ in range(clan):
        rel_costs.append(np.add.outer(table.costs[1:], rel_costs[-1]).ravel())
    inner_costs = [level.tolist() for level in rel_costs[:-1]]
    # row p: the leaves below node p of the last inner level, in preorder
    # (with no inner level, the clan's root alone)
    families = np.arange(len(rel_costs[-1])).reshape(n if clan else 1, -1).T
    family_costs = rel_costs[-1][families]

    def path(i: int, d: int) -> tuple:
        """The gates from a clan's root to node i of its level d."""
        return tuple(i // n ** j % n for j in range(d))

    best_cost: int | None = None
    best_seq: tuple | None = None
    examined = 0

    def score_clan(cost: int, seq: tuple, v: np.ndarray) -> None:
        """Examine the node (cost, seq) with operator v and the clan's
        levels below it, in the walk's preorder."""
        nonlocal best_cost, best_seq, examined
        levels = [v[None]]
        for _ in range(clan):
            levels.append(expand(steps, levels[-1]))
        leaves = levels.pop()
        # |tr(O_s V)|, so dim times the correctness: dim is a power of two,
        # so comparing it with dim * threshold decides as the correctness does
        mag = np.abs(block.rows @ leaves.reshape(len(leaves), -1).T)
        leaf_hit = mag.max(axis=0) >= dim * threshold
        family_hit = leaf_hit[families].any(axis=1).tolist()
        leaf_hit = leaf_hit.tolist()
        own_hit = [(np.abs(np.trace(level, axis1=1, axis2=2)) / dim >= threshold).tolist()
                   for level in levels]

        def score_family(p: int) -> None:
            nonlocal best_cost, best_seq, examined
            if not family_hit[p]:
                # nothing matches, so the best stays and bounds every block
                # alike; a pruned leaf's bound is at most 0 and counts nothing
                if best_cost is None:
                    examined += families.shape[1] * len(block)
                else:
                    bounds = best_cost - cost - family_costs[p]
                    examined += int(np.searchsorted(block.sorted_costs, bounds).sum())
                return
            for j, leaf_cost in zip(families[p].tolist(), (cost + family_costs[p]).tolist()):
                if best_cost is not None and leaf_cost >= best_cost:
                    continue  # pruned: it would count nothing, but costs a replay
                bound = None if best_cost is None else best_cost - leaf_cost
                if not leaf_hit[j]:
                    examined += (len(block) if bound is None
                                 else int(np.searchsorted(block.sorted_costs, bound)))
                    continue
                k, hit = block.replay(mag[:, j] / dim, threshold, bound)
                examined += k
                if hit is not None:
                    best_cost = leaf_cost + int(block.costs[hit])
                    best_seq = seq + path(j, clan) + block.sequence(hit)

        if not clan:
            score_family(0)
            return
        stack = [(0, 0)]  # the inner nodes as (level, index)
        while stack:
            d, i = stack.pop()
            node_cost = cost + inner_costs[d][i]
            if best_cost is not None and node_cost >= best_cost:
                continue
            examined += 1
            if own_hit[d][i]:
                best_cost, best_seq = node_cost, seq + path(i, d)
            if d < clan - 1:
                stack.extend((d + 1, i + g * n ** d) for g in reversed(range(n)))
            else:
                score_family(i)

    # the walk above the clans' roots, node by node: (cost, gate indices, V
    # before the last gate); popping a node applies its last gate, so pruned
    # nodes cost no product.  The parent's V stays on the stack for its
    # siblings, so each child is a new array.
    costs = table.costs[1:].tolist()
    term = np.empty((dim, dim), dtype=complex)
    stack = [(0, (), np.ascontiguousarray(goal.matrix.conj().T))]
    while stack:
        cost, seq, v = stack.pop()
        if best_cost is not None and cost >= best_cost:
            continue
        if seq:
            v = step_product(steps[seq[-1]], v, term)
        if len(seq) == walk_depth - clan:
            score_clan(cost, seq, v)
            continue
        examined += 1
        if abs(np.trace(v)) / dim >= threshold:
            best_cost, best_seq = cost, seq
        stack.extend((cost + costs[i], seq + (i,), v) for i in reversed(range(n)))

    witness = None if best_seq is None else [placements[i] for i in best_seq]
    return SearchReport(min_cost=best_cost, witness=witness, circuits_examined=examined)
