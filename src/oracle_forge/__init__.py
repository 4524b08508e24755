"""Quantum circuit synthesis from a target unitary via a hybrid
quantum-inspired evolutionary search, with a Kronecker-structured fast
multiplication kernel on the evaluation hot path."""

from .brute import SearchReport, min_cost_search
from .codec import (
    circuit_from_json,
    circuit_to_json,
    codon_bits,
    decode,
    decode_codon,
    decode_indices,
    render_ascii,
)
from .engine import (
    BatchStats,
    HqeaParams,
    RunResult,
    evolve,
    init_population,
    observe,
    rotate_toward,
    run_batch,
)
from .evaluate import (
    EvalResult,
    FitnessParams,
    GoalSpec,
    allcost,
    circuit_unitary,
    correctness,
    evaluate_batch,
    evaluate_circuit,
    fitness_value,
    is_success,
)
from .gates import (
    CostModel,
    Gate,
    GateSet,
    Placement,
    PlacementTable,
    case_count,
    case_from_index,
    default_gate_set,
    extend_gate_set,
    gate_matrix,
    placement_cost,
)
from .kron_apply import (
    StructuredOperator,
    apply_structured,
    embed_dense,
    speedup_predicted,
)
from .linalg import MulCounter, adjoint, is_unitary, kron, mat_mul_naive, trace
from .targets import BUILTIN_NAMES, builtin, load_goal, save_goal

__version__ = "0.1.0"
