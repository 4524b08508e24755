"""Command-line front end.

Subcommands: synth (one evolutionary run), experiment (seeded batches with
ST/AS/OT statistics), verify (score a saved circuit against a goal),
bench-matmul (structured-kernel operation counts) and brute (exhaustive
minimal-cost search).

This module is the program's one boundary: it opens every file
(`read_json` reads every input file, `write_text` writes every output file)
and converts every JSON value and text form: the whole-number rule, the
[re, im] matrix form, the gate-file, goal-file and circuit-file shapes and
the circuit drawing.  The library takes and returns only objects.  Every
report is printed, and its --csv or --out flag also writes it to a file.

Exit codes: 0 success, 1 usage or configuration error, 2 evolution
finished max_gen without a satisfying circuit.  Values resolve as
command-line flag > config file > default.  Each default is written once, in
its flag: the library's own (a FitnessParams or HqeaParams field, a
min_cost_search or benchmark_sweep parameter) where it has one.
"""
from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import sys
from dataclasses import astuple, fields, replace

import numpy as np

from . import targets
from .brute import min_cost_search
from .engine import HqeaParams, evolve, run_batch
from .evaluate import FitnessParams, GoalSpec, allcost, evaluate_circuit, is_success
from .gates import MAX_QUBITS, Gate, GateSet, Placement, default_gate_set, require_qubits
from .kron_apply import BenchRow, benchmark_sweep


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error exits 1 like every other usage
    error: status 2 means that max_gen ran out without success."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def whole(text: str) -> int:
    """An integer flag's value, read by the file rule (`whole_number`):
    2, 2.0 and 1e1 are whole numbers, 1.5 and inf are not."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return whole_number(float(text), "the value")
    except ValueError:
        raise argparse.ArgumentTypeError(f"the value must be a whole number, got {text!r}") \
            from None


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    fitness = {f.name: f.default for f in fields(FitnessParams)}
    hqea = {f.name: f.default for f in fields(HqeaParams)}
    brute = inspect.signature(min_cost_search).parameters
    bench = inspect.signature(benchmark_sweep).parameters

    parser = _Parser(
        prog="oracle-forge",
        description="Synthesize quantum circuits from a target unitary with a "
        "quantum-inspired evolutionary search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_goal_flags(p):
        p.add_argument("--goal", help=f"built-in goal: {', '.join(targets.BUILTIN_NAMES)}")
        p.add_argument("--goal-file", help="JSON goal file (see oracle_forge.cli.goal_to_json)")
        p.add_argument("--gate-file", help="JSON file of extra gates to add to the catalog")

    def add_run_flags(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--satcost", type=whole, help="default: the goal's optimal cost, else 0")
        p.add_argument("--g", type=whole, default=8, help="maximal number of gates per circuit")
        p.add_argument("--award", type=float, default=fitness["award"])
        p.add_argument("--punish", type=float, default=fitness["punish"])
        p.add_argument("--eps", type=float, default=fitness["eps"])
        p.add_argument("--max-gen", type=whole, default=hqea["max_gen"])
        p.add_argument("--pop", type=whole, default=hqea["pop_size"])
        p.add_argument("--measurements", type=whole, default=hqea["measurements"])
        p.add_argument("--seed", type=whole, default=hqea["seed"])

    p_synth = sub.add_parser("synth", help="run one synthesis and save the best circuit")
    add_goal_flags(p_synth)
    add_run_flags(p_synth)
    p_synth.add_argument("--out-dir", default=".",
                         help="directory for circuit.json and generations.csv")
    p_synth.set_defaults(func=cmd_synth)

    p_exp = sub.add_parser("experiment", help="run seeded batches and print ST/AS/OT rows")
    add_goal_flags(p_exp)
    add_run_flags(p_exp)
    p_exp.add_argument("--runs", type=whole, default=20)
    p_exp.add_argument("--punish-sweep", type=float, nargs="+",
                       help="run one batch per punish value")
    p_exp.add_argument("--csv", help="also write the rows to this CSV file")
    p_exp.set_defaults(func=cmd_experiment)

    p_ver = sub.add_parser("verify", help="score a saved circuit against a goal")
    add_goal_flags(p_ver)
    p_ver.add_argument("--circuit", required=True, help="circuit JSON file")
    p_ver.add_argument("--satcost", type=whole, help="default: the goal's optimal cost, else 0")
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench-matmul", help="structured vs naive multiplication counts")
    p_bench.add_argument("--max-total", type=whole, default=bench["max_total"].default,
                         help="sweep all power-of-two (m,n,k) with m*n*k <= this")
    p_bench.add_argument("--triple", type=whole, nargs=3, action="append", metavar=("M", "N", "K"),
                         help="benchmark an explicit triple instead of the sweep")
    p_bench.add_argument("--csv", help="also write the rows to this CSV file")
    p_bench.set_defaults(func=cmd_bench)

    p_brute = sub.add_parser("brute", help="exhaustive minimal-cost search")
    add_goal_flags(p_brute)
    p_brute.add_argument("--max-gates", type=whole, required=True)
    p_brute.add_argument("--eps", type=float, default=brute["eps"].default)
    p_brute.add_argument("--budget", type=whole, default=brute["budget"].default)
    p_brute.add_argument("--out", help="also write the JSON report to this file")
    p_brute.set_defaults(func=cmd_brute)

    return parser, sub.choices


def _load_config(path: str, command: argparse.ArgumentParser) -> dict:
    """The non-null values of a config file that name a one-value flag of the command.

    Other keys are ignored.
    """
    cfg = json_present(json_object(read_json(path), "a config file"))
    flags = {a.dest: a.type for a in command._actions if a.option_strings and a.nargs is None}
    return {key: _config_value(key, val, flags[key]) for key, val in cfg.items() if key in flags}


def _config_value(key: str, val, kind):
    """A config value checked against, and converted to, its flag's type (None: a string)."""
    if kind is whole:
        return whole_number(val, f"config {key!r}")
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if kind is None and isinstance(val, str):
        return val
    raise ValueError(f"config {key!r} must be {'a number' if kind is float else 'a string'}, "
                     f"got {val!r}")


def read_json(path):
    """The JSON value in the file at path: how every input file is read."""
    with open(path) as f:
        return json.load(f)


def write_text(path, text: str) -> None:
    """Write text to the file at path: how every output file is written."""
    with open(path, "w", newline="") as f:
        f.write(text)


def report(text: str, path=None) -> None:
    """Print a report, and first write the same text to the file at path if one is given."""
    if path:
        write_text(path, text)
    sys.stdout.write(text)


def csv_text(rows) -> str:
    """Rows as CSV, the program's one CSV format: a float field as its repr,
    None as empty, and a field holding a comma or a quote quoted."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def whole_number(value, what: str) -> int:
    """A file value that must be a whole number (2 or 2.0, not 1.9, a bool or a string)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return value


def _shown(value) -> str:
    """A JSON value for an error message: containers by kind, scalars as written."""
    return "an object" if isinstance(value, dict) else "a list" if isinstance(value, list) \
        else repr(value)


def json_object(value, what: str) -> dict:
    """A file value that must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {_shown(value)}")
    return value


def json_fields(obj: dict, what: str, *keys: str) -> list:
    """The values of required fields of a file object, in the order named."""
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} has no {key!r} field")
    return [obj[key] for key in keys]


def json_present(obj: dict) -> dict:
    """The fields of a file object that are not null: a null field reads as absent."""
    return {key: value for key, value in obj.items() if value is not None}


def json_list(value, what: str) -> list:
    """A file value that must be a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {_shown(value)}")
    return value


def _is_pair(z) -> bool:
    """True for an [re, im] pair of JSON numbers."""
    return isinstance(z, list) and len(z) == 2 and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in z)


def json_matrix(value, what: str) -> np.ndarray:
    """A file matrix: a non-empty list of equally long rows of [re, im] number pairs."""
    if not isinstance(value, list) or not value or not all(
            isinstance(row, list) and len(row) == len(value[0]) and all(map(_is_pair, row))
            for row in value):
        raise ValueError(f"{what} must be a list of equally long rows of [re, im] number pairs")
    return np.array([[complex(re, im) for (re, im) in row] for row in value], dtype=complex)


def extend_gate_set(gs: GateSet, entries) -> GateSet:
    """Append user gates from a gate file's JSON list of {name, arity, cost, matrix} entries.

    Matrices are given as nested [re, im] pairs, and `Gate` checks each
    one's shape and entries.  Two-qubit entries are treated as families and
    contribute both orientations.
    """
    gates = list(gs.gates)
    for i, e in enumerate(json_list(entries, "a gate file")):
        what = f"gate entry {i}"
        name, arity, cost, matrix = json_fields(json_object(e, what), what,
                                                "name", "arity", "cost", "matrix")
        if not isinstance(name, str):
            raise ValueError(f"{what}: name must be a string, got {name!r}")
        g = Gate(name, json_matrix(matrix, f"gate {name!r}: matrix"),
                 whole_number(cost, f"gate {name!r}: cost"))
        if g.arity != whole_number(arity, f"gate {name!r}: arity"):
            raise ValueError(f"gate {name!r}: declared arity {arity} does not match matrix size")
        gates.append(g)
    return GateSet(tuple(gates))


def goal_to_json(goal: GoalSpec) -> dict:
    """Exportable form: the qubit count, the matrix as [re, im] pairs, and the
    optimal cost and name when the goal has them."""
    data = {
        "qubits": goal.num_qubits,
        "matrix": [[[z.real, z.imag] for z in row] for row in goal.matrix],
    }
    if goal.optimal_cost is not None:
        data["optimal_cost"] = goal.optimal_cost
    if goal.name:
        data["name"] = goal.name
    return data


def goal_from_json(data) -> GoalSpec:
    """Rebuild a goal from the JSON form; `GoalSpec` rejects non-unitary or non-2^m matrices."""
    data = json_present(json_object(data, "a goal file"))
    mat = json_matrix(*json_fields(data, "a goal file", "matrix"), "goal matrix")
    if "qubits" in data:
        m = whole_number(data["qubits"], "goal qubits")
    else:  # read from the shape, which then names a bad one alone
        m = len(mat).bit_length() - 1
        if not 1 <= m <= MAX_QUBITS or mat.shape != (1 << m, 1 << m):
            raise ValueError(f"goal matrix of shape {mat.shape} is not 2^qubits x 2^qubits "
                             f"for 1 to {MAX_QUBITS} qubits")
    opt = data.get("optimal_cost")
    if opt is not None:
        opt = whole_number(opt, "goal optimal_cost")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"goal name must be a string, got {name!r}")
    return GoalSpec(m, mat, optimal_cost=opt, name=name)


def circuit_to_json(circuit, m: int) -> dict:
    """Exportable form: non-wire gates in time order plus the derived cost."""
    return {
        "qubits": m,
        "gates": [{"gate": p.name, "top": p.top} for p in circuit if not p.is_wire],
        "cost": allcost(circuit),
    }


def circuit_from_json(data: dict, gs: GateSet) -> tuple[list[Placement], int]:
    """Rebuild (circuit, qubit count) from the JSON form."""
    qubits, gates = json_fields(json_object(data, "a circuit file"), "a circuit file",
                                "qubits", "gates")
    m = whole_number(qubits, "circuit qubits")
    require_qubits(m, "circuit qubits")
    circuit = []
    for i, e in enumerate(json_list(gates, "circuit gates")):
        what = f"circuit gate {i}"
        name, top = json_fields(json_object(e, what), what, "gate", "top")
        if not isinstance(name, str):
            raise ValueError(f"{what}: gate must be a name, got {name!r}")
        circuit.append(gs.placement(name, whole_number(top, f"gate {name!r}: top"), m))
    return circuit, m


# (control wire, its idle basis states, its active ones) of a two-qubit
# matrix: the upper wire is the more significant bit of the basis index
_CONTROLS = ((0, [0, 1], [2, 3]), (1, [0, 2], [1, 3]))
_X = np.array([[0, 1], [1, 0]])


def _cells(p: Placement) -> dict:
    """The drawn cell of each wire a non-wire placement acts on.

    A two-qubit matrix that is the identity on the basis states where one of
    its wires is 0 is controlled by that wire, drawn `o`; its target is drawn
    `(+)` when the controlled gate is X.  The first wire that qualifies is
    the control, so a symmetric one (CZ) draws it on the upper wire.
    """
    if p.span == 1:
        return {p.top: f"[{p.name}]"}
    a = p.matrix
    for control, idle, active in _CONTROLS:
        if np.array_equal(a[idle], np.eye(4)[idle]):
            target = "(+)" if np.array_equal(a[np.ix_(active, active)], _X) else f"[{p.name}]"
            return {p.top + control: "o", p.top + 1 - control: target}
    return {p.top: f"[{p.name}", p.top + 1: f"{p.name}]"}


def render_ascii(circuit, m: int) -> str:
    """Draw the circuit as m wire rows, time running left to right."""
    columns = []
    for p in circuit:
        if p.is_wire:
            continue
        cells = _cells(p)
        width = max(len(c) for c in cells.values()) + 2
        col = []
        for q in range(m):
            cell = cells.get(q, "")
            pad = width - len(cell)
            col.append("-" * (pad // 2) + cell + "-" * (pad - pad // 2))
        columns.append(col)
    rows = []
    for q in range(m):
        body = "".join(col[q] for col in columns) if columns else "---"
        rows.append(f"q{q}: ---{body}---")
    return "\n".join(rows)


def _goal(args):
    if bool(args.goal) == bool(args.goal_file):
        raise ValueError("exactly one of --goal / --goal-file is required")
    goal = (targets.builtin(args.goal) if args.goal
            else goal_from_json(read_json(args.goal_file)))
    gs = default_gate_set()
    if args.gate_file:
        gs = extend_gate_set(gs, read_json(args.gate_file))
    return goal, gs


def _satcost(args, goal) -> int:
    if args.satcost is not None:
        return args.satcost
    return goal.optimal_cost if goal.optimal_cost is not None else 0


def _params(args, goal) -> HqeaParams:
    fitness = FitnessParams(_satcost(args, goal), args.award, args.punish, args.eps)
    return HqeaParams(fitness, pop_size=args.pop, measurements=args.measurements,
                      max_gen=args.max_gen, seed=args.seed)


def cmd_synth(args) -> int:
    goal, gs = _goal(args)
    result = evolve(goal, gs, args.g, _params(args, goal))

    os.makedirs(args.out_dir, exist_ok=True)
    write_text(os.path.join(args.out_dir, "circuit.json"),
               json.dumps(circuit_to_json(result.best_circuit, goal.num_qubits), indent=2) + "\n")
    write_text(os.path.join(args.out_dir, "generations.csv"),
               csv_text([("gen", "best_fitness", "best_correctness", "best_cost"),
                         *result.history]))

    print(render_ascii(result.best_circuit, goal.num_qubits))
    print(f"cost:        {result.best_eval.allcost}")
    print(f"correctness: {result.best_eval.correctness:.12f}")
    print(f"fitness:     {result.best_eval.fitness:.6f}")
    gen = result.generation_found if result.success else "none"
    print(f"generation:  {gen} (of {result.generations_run} run)")
    return 0 if result.success else 2


def cmd_experiment(args) -> int:
    goal, gs = _goal(args)
    params = _params(args, goal)
    fp = params.fitness
    # every sweep value is checked before the first batch runs
    batches = [replace(params, fitness=replace(fp, punish=punish))
               for punish in args.punish_sweep or [fp.punish]]

    rows = [["goal", "satcost", "g", "max_gen", "award", "punish", "runs", "ST", "AS", "OT"]]
    for batch in batches:
        stats = run_batch(goal, gs, args.g, batch, args.runs)
        rows.append([goal.name or "custom", fp.satcost, args.g, params.max_gen, fp.award,
                     batch.fitness.punish, args.runs, stats.st, stats.as_mean, stats.ot])
    report(csv_text(rows), args.csv)
    return 0


def cmd_verify(args) -> int:
    goal, gs = _goal(args)
    circuit, m = circuit_from_json(read_json(args.circuit), gs)
    if m != goal.num_qubits:
        raise ValueError(f"circuit is on {m} qubits but goal is on {goal.num_qubits}")
    fp = FitnessParams(_satcost(args, goal))
    result = evaluate_circuit(circuit, goal, fp)
    print(render_ascii(circuit, m))
    print(f"correctness: {result.correctness:.12f}")
    print(f"cost:        {result.allcost}")
    print(f"satcost:     {fp.satcost}")
    print(f"success:     {is_success(result, fp)}")
    return 0


def cmd_bench(args) -> int:
    rows = benchmark_sweep(args.max_total, [tuple(t) for t in args.triple] if args.triple else None)
    report(csv_text([[f.name for f in fields(BenchRow)], *map(astuple, rows)]), args.csv)
    return 0


def cmd_brute(args) -> int:
    goal, gs = _goal(args)
    found = min_cost_search(goal, args.max_gates, gs, eps=args.eps, budget=args.budget)
    witness = (None if found.witness is None
               else circuit_to_json(found.witness, goal.num_qubits)["gates"])
    report(json.dumps({"min_cost": found.min_cost, "witness": witness,
                       "circuits_examined": found.circuits_examined}, indent=2) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the config's values become the command's defaults, which flags override
            command = commands[args.command]
            command.set_defaults(**_load_config(args.config, command))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a budget too large to hold, such as a huge --g
        print(f"error: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
