"""Exhaustive minimal-cost circuit search, used as an independent verifier.

Enumerates all gate sequences up to a length budget (wires excluded: they
change neither the unitary nor the cost) and reports the cheapest circuit
matching the goal up to global phase.  Gate costs are non-negative, so a
node is examined iff its cost is below the best match found before it in
DFS preorder, and every node below a pruned one is pruned too.

The search walks V = O_seq G^dag, the operator of a node's gate sequence
times the goal's adjoint: the root is G^dag and a node's correctness
|tr V| / 2^m.  Only the top `max_gates - L` levels are walked; when no
block fits (L = 0, from six qubits on with the default gates) that is every
level, each node examined by its own trace.  Each node's V is its parent's
times its last placement's block step (see `kron_apply.BlockStep`), written
into a new array so that the parent's stays whole for its siblings; a block
step equals the structured product bit for bit up to the sign of an exact
zero, which no correctness sees.  A node's correctness followed by a
sequence s is |vec(O_s^T) . vec(V)| / 2^m, and a suffix block holds
vec(O_s^T) for every s of 0..L gates in DFS preorder, built once from the
identity a level at a time, every placement's block step applied to the
whole level's stack, and each matrix stored transposed.

The walk's last c <= L levels are scored a clan at a time.  A clan plan
reads the block's rows of every sequence s of 0..c gates: for a node c
levels above the walk's last level (the clan's root) with operator V, one
product of the inner sequences' rows with vec(V) gives every inner node's
trace tr(O_s V), and one (n^c 2^m x 2^m) by (2^m x 2^m) product of the
leaves' O_s, their rows transposed back, with V gives the leaves O_s V.
A leaf b and a block row a match iff |a . b| >= 2^m (1 - eps).  The block
keeps f(a) = |a . p| of its rows, sorted, for a fixed real unit probe p;
f is phase-invariant and 1-Lipschitz, and a match forces
min_phi |e^(i phi) conj(a) - b| <= R = sqrt(|a|^2 + |b|^2 - 2^(m+1) (1 - eps)),
so one searchsorted finds, for every leaf, the rows whose f lies within R
(with the largest |a|^2, plus a rounding bound) of the leaf's.  A second
probe screens those pairs the same way, and only the rest get the exact
test: about 1 pair in 100 on two qubits at eps = 1e-6.  The plan also
numbers every sequence of 0..c+L gates below the root in preorder, with its
cost.  One pass over the matches in that order keeps the running best and
counts what lies between two matches that lower it with one array
comparison, so the result, the witness and the number of circuits examined
are those of the node-by-node walk.  Block and plan hold no goal and are
kept on the placement table.  c is the largest number of walk levels, at
most L, whose plan, as built, fits in BLOCK_BYTES: 2 on two and three
qubits with the default gates, 1 on four and five.  A clan of c = 0 levels
is its root alone, scored as its one leaf.  The traces and the exact test
sum in another order than `evaluate.correctness`, so a node within rounding
(about 1e-12) of `1 - eps` may be decided differently from `evaluate_circuit`.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .evaluate import FitnessParams, GoalSpec, require_eps
from .gates import GateSet, PlacementTable
from .kron_apply import step_product
from .kron_apply import apply_structured  # noqa: F401  perfbench/tracing.py wraps it here
from .linalg import identity

# Memory for the suffix block's rows of 1..L gates, which fixes its depth L
# for a given qubit count and gate set (the empty sequence's row is one
# more), and again for a clan's operator tables, for its plan as built and
# for each chunk of the pairs the index gives the exact test.
BLOCK_BYTES = 1 << 20


@dataclass
class SearchReport:
    min_cost: int | None
    witness: list | None
    circuits_examined: int


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


def clan_depth(n_gates: int, walk_depth: int, depth: int) -> int:
    """Largest c <= walk_depth and <= depth, the suffix block's, whose plan of
    every sequence of up to c + depth gates, as built, fits in BLOCK_BYTES."""
    # a clan's operator tables are rows of the block, so they fit with it; the
    # plan is built as an int64 position and cost per sequence
    c = min(walk_depth, depth)
    while c and node_count(n_gates, c + depth) * 16 > BLOCK_BYTES:
        c -= 1
    return c


def preorder_levels(op_costs: np.ndarray, depth: int) -> list:
    """(positions, costs) of the sequences of each length 0..depth, in the DFS
    preorder of every sequence of 0..depth gates of costs `op_costs`; a length's
    sequences are listed lexicographically, the first gate most significant."""
    n = len(op_costs)
    pos = cost = np.zeros(1, dtype=np.int64)
    out = [(pos, cost)]
    for d in range(1, depth + 1):
        # s + (g,) follows s and the subtrees of s + (0,) .. s + (g-1,)
        pos = np.add.outer(pos, 1 + np.arange(n) * node_count(n, depth - d)).ravel()
        cost = np.add.outer(cost, op_costs).ravel()
        out.append((pos, cost))
    return out


class SuffixBlock:
    """Every gate sequence of length 0..depth in DFS preorder, as one matrix,
    with a projection index for finding its matches.

    `rows[i]` is vec(O_s^T) for the i-th sequence s (row 0 the empty one,
    vec(I)).  For two fixed real unit probes p and q, `keys` holds f(a) =
    |a . p| of every row a in increasing order, `order` the rows' positions
    in that order and `screen` their |a . q|; `max_norm` is the largest
    |a|^2.  The block depends only on the placement table and depth.
    """

    def __init__(self, table: PlacementTable, depth: int):
        dim = table.cols.shape[1]  # cols holds 2^m rows per placement
        n, self.depth = len(table) - 1, depth
        self.rows = np.empty((node_count(n, depth), dim * dim), dtype=complex)
        stack = self.rows.reshape(-1, dim, dim)
        # `expand` appends a gate: sequence (g_1, .., g_d) of a level is matrix
        # g_d n^(d-1) + .. + g_1, at the lexicographic position (g_d, .., g_1)
        level = identity(dim)[None]
        for d, (pos, _) in enumerate(preorder_levels(table.costs[1:], depth)):
            if d:
                level = expand(table.steps[1:], level)
            stack[pos.reshape((n,) * d).T.ravel()] = level.transpose(0, 2, 1)
        # p and q share no structure with the gates' entries, so that the
        # rows' projections spread out: the fractional parts of sqrt(2),
        # sqrt(3), ..., centred, dim^2 for each probe in turn
        probes = (np.sqrt(np.arange(2, 2 * dim * dim + 2)) % 1 - 0.5).reshape(2, dim * dim)
        self.probes = (probes.T / np.sqrt((probes * probes).sum(axis=1))).astype(complex)
        keys, screen = np.abs(self.rows @ self.probes).T
        self.order = np.argsort(keys)
        self.keys, self.screen = keys[self.order], screen[self.order]
        self.max_norm = float(np.vecdot(self.rows, self.rows).real.max())

    def __len__(self) -> int:
        return len(self.rows)

    def matches(self, leaves: np.ndarray, bound: float):
        """Yield (j, r), index arrays of every leaf j and row r with
        |rows[r] . leaves[j]| >= bound, a chunk of pairs at a time.

        A match forces min_phi |e^(i phi) conj(a) - b| <= R = sqrt(|a|^2 +
        |b|^2 - 2 bound), and a projection |x . p| on a real unit probe is
        phase-invariant and 1-Lipschitz, so each probe's projections of a and
        b lie within R, plus rounding, of each other.  One searchsorted finds
        the rows whose key lies within R of the leaf's, the screen drops the
        pairs that q sets further apart, and only the rest get the exact test.
        """
        norms = np.vecdot(leaves, leaves).real
        # bounds the rounding of each dot product, norm and projection here:
        # each sums dim^2 terms of vectors whose norms are at most sqrt(|a|^2 + |b|^2)
        err = leaves.shape[1] * np.finfo(float).eps * (self.max_norm + norms)
        radius = np.sqrt(np.maximum(self.max_norm + norms - 2 * bound, 0) + 4 * err) + 2 * err
        f, g = np.abs(leaves @ self.probes).T
        # the window [f - radius, f + radius] holds both its ends
        lo = np.searchsorted(self.keys, f - radius, side="left")
        hi = np.searchsorted(self.keys, f + radius, side="right")
        # pair k is leaf j's row k - ends[j] + hi[j] in key order
        ends = np.cumsum(hi - lo)
        shift, pairs = hi - ends, int(ends[-1])
        chunk = max(1, BLOCK_BYTES // (16 * leaves.shape[1]))
        for start in range(0, pairs, chunk):
            k = np.arange(start, min(start + chunk, pairs))
            j = np.searchsorted(ends, k, side="right")
            k += shift[j]
            near = np.abs(self.screen[k] - g[j]) <= radius[j]
            j, r = j[near], self.order[k[near]]
            hit = np.abs(np.einsum("ij,ij->i", self.rows[r], leaves[j])) >= bound
            yield j[hit], r[hit]


class ClanPlan:
    """Every gate sequence of 0..clan + depth gates below a clan's root in DFS
    preorder, for a suffix block of `depth >= clan` gates: the clan's levels
    and the block below each leaf.  `costs[p]` is the p-th sequence's cost.
    `inner` holds the positions of the clan's nodes above its last level and
    `leaves` those of its last level, each level's sequences
    lexicographically; leaf j then block row r is sequence `leaves[j] + r`.
    `inner_ops[i]` is the block's row vec(O_s^T) of the sequence s at
    `inner[i]`, and `leaf_ops` stacks the leaves' O_s, the block's rows
    transposed back, one 2^m-row slice each, so that the leaves below a root
    V are `leaf_ops @ V`.  A plan of no clan levels has neither table: its
    root is its one leaf."""

    def __init__(self, table: PlacementTable, block: SuffixBlock, clan: int):
        if clan > block.depth:
            raise ValueError(f"a clan of {clan} levels is deeper than its block of {block.depth}")
        n, total = len(table) - 1, clan + block.depth
        levels = preorder_levels(table.costs[1:], total)
        self.costs = np.empty(node_count(n, total), dtype=np.int64)
        for pos, cost in levels:
            self.costs[pos] = cost
        # the narrowest type that holds every cost: less memory for each count to scan
        self.costs = self.costs.astype(np.min_scalar_type(self.costs.max()))
        positions = np.concatenate([pos for pos, _ in levels[:clan + 1]])
        self.subtree = [node_count(n, total - d) for d in range(1, total + 1)]
        k = node_count(n, clan - 1)  # the inner nodes
        self.inner, self.leaves = positions[:k], positions[k:]
        if not clan:
            return  # the root is the clan's one leaf
        # the block's rows of the same sequences, listed in the same order
        rows = np.concatenate([pos for pos, _ in
                               preorder_levels(table.costs[1:], block.depth)[:clan + 1]])
        dim = table.cols.shape[1]
        self.inner_ops = block.rows[rows[:k]]
        leaf_ops = block.rows[rows[k:]].reshape(-1, dim, dim)
        self.leaf_ops = leaf_ops.transpose(0, 2, 1).reshape(-1, dim)

    def decode(self, p: int) -> tuple:
        """The gate indices of the p-th sequence."""
        seq = []
        for size in self.subtree:
            if not p:
                break
            g, p = divmod(p - 1, size)
            seq.append(g)
        return tuple(seq)


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
    table.require_budget(max_gates)  # the plans and the walk sum costs in int64
    steps = table.steps[1:]  # index 0 is the wire
    n = len(steps)
    if node_count(n, max_gates, stop=budget) > budget:
        raise ValueError(f"over the circuit budget: the search would examine more than "
                         f"{budget} circuits")

    dim = goal.dim
    threshold = 1.0 - eps
    depth = block_depth(n, dim, max_gates)
    walk_depth = max_gates - depth
    clan = clan_depth(n, walk_depth, depth)
    if depth:  # else the walk examines every node itself, by its trace
        block = table.kept((SuffixBlock, depth), lambda: SuffixBlock(table, depth))
        plan = table.kept((ClanPlan, depth, clan), lambda: ClanPlan(table, block, clan))
    # |tr(O_s V)| is dim times the correctness; dim is a power of two, so
    # comparing it with dim * threshold decides as the correctness does
    min_trace = dim * threshold

    best_cost = sys.maxsize  # nothing matched yet
    best_seq: tuple | None = None
    examined = 0

    def score_clan(cost: int, seq: tuple, v: np.ndarray) -> None:
        """Examine the node (cost, seq) with operator v and every sequence of
        up to clan + depth gates below it, in the walk's preorder."""
        nonlocal best_cost, best_seq, examined
        # the matches' positions: the inner nodes' by their traces
        # tr(O_s V) = vec(O_s^T) . vec(V), the rest by the index
        if clan:
            found = [plan.inner[np.abs(plan.inner_ops @ v.ravel()) >= min_trace]]
            leaves = (plan.leaf_ops @ v).reshape(len(plan.leaves), dim * dim)
        else:  # the root alone: no inner node, and itself the one leaf
            found, leaves = [plan.inner], v.reshape(1, dim * dim)
        found += [plan.leaves[j] + r for j, r in block.matches(leaves, min_trace)]
        hits = np.sort(np.concatenate(found))
        # a sequence is examined iff it costs less than the best before it, so
        # only the matches that lower the best split the count
        bound, start, last = best_cost - cost, 0, None
        for p, c in zip(hits.tolist(), plan.costs[hits].tolist()):
            if c < bound:
                examined += int(np.count_nonzero(plan.costs[start:p + 1] < bound))
                bound, start, last = c, p + 1, p
        examined += int(np.count_nonzero(plan.costs[start:] < bound))
        if last is not None:
            best_cost, best_seq = cost + bound, seq + plan.decode(last)

    # the walk above the clans' roots, node by node: (cost, gate indices, V
    # before the last gate); popping a node applies its last gate, so pruned
    # nodes cost no product.  The parent's V stays on the stack for its
    # siblings, so each child is a new array.
    costs = table.costs[1:].tolist()
    term = np.empty((dim, dim), dtype=complex)
    stack = [(0, (), np.ascontiguousarray(goal.matrix.conj().T))]
    while stack:
        cost, seq, v = stack.pop()
        if cost >= best_cost:
            continue
        if seq:
            v = step_product(steps[seq[-1]], v, term)
        if depth and len(seq) == walk_depth - clan:
            score_clan(cost, seq, v)
            continue
        examined += 1
        if abs(np.trace(v)) / dim >= threshold:
            best_cost, best_seq = cost, seq
        if len(seq) < max_gates:
            stack.extend((cost + costs[i], seq + (i,), v) for i in reversed(range(n)))

    witness = None if best_seq is None else [table.cases[1 + i] for i in best_seq]
    return SearchReport(min_cost=None if witness is None else best_cost, witness=witness,
                        circuits_examined=examined)
