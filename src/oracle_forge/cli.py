"""Command-line front end.

Subcommands: synth (one evolutionary run), experiment (seeded batches with
ST/AS/OT statistics), verify (score a saved circuit against a goal),
bench-matmul (structured-kernel operation counts) and brute (exhaustive
minimal-cost search).

Exit codes: 0 success, 1 usage or configuration error, 2 evolution
finished max_gen without a satisfying circuit.  Values resolve as
command-line flag > config file > built-in default.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from . import targets
from .brute import min_cost_search
from .codec import load_circuit, render_ascii, save_circuit
from .engine import HqeaParams, evolve, run_batch
from .evaluate import FitnessParams, evaluate_circuit, is_success
from .gates import default_gate_set, extend_gate_set, whole_number
from .kron_apply import BENCH_CSV_HEADER, benchmark_sweep

# the settings only the CLI has; the others default to the field of
# FitnessParams or HqeaParams they fill, named in PARAM_FIELDS
DEFAULTS = {
    "satcost": None,  # falls back to the goal's optimal cost, else 0
    "g": 8,
    "runs": 20,
    "out_dir": ".",
}
PARAM_FIELDS = {
    "award": "award",
    "punish": "punish",
    "eps": "eps",
    "max_gen": "max_gen",
    "pop": "pop_size",
    "measurements": "measurements",
    "seed": "seed",
}
# the type a config-file value must have: that of the flag it stands for
CONFIG_TYPES = {
    **dict.fromkeys(("satcost", "g", "runs", "max_gen", "pop", "measurements", "seed"), int),
    **dict.fromkeys(("award", "punish", "eps"), float),
    **dict.fromkeys(("goal", "goal_file", "gate_file", "out_dir"), str),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oracle-forge",
        description="Synthesize quantum circuits from a target unitary with a "
        "quantum-inspired evolutionary search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_goal_flags(p):
        p.add_argument("--goal", help=f"built-in goal: {', '.join(targets.BUILTIN_NAMES)}")
        p.add_argument("--goal-file", help="JSON goal file (see targets.save_goal)")
        p.add_argument("--gate-file", help="JSON file of extra gates to add to the catalog")

    def add_run_flags(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--satcost", type=int)
        p.add_argument("--g", type=int, help="maximal number of gates per circuit")
        p.add_argument("--award", type=float)
        p.add_argument("--punish", type=float)
        p.add_argument("--eps", type=float)
        p.add_argument("--max-gen", type=int)
        p.add_argument("--pop", type=int)
        p.add_argument("--measurements", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out-dir")

    p_synth = sub.add_parser("synth", help="run one synthesis and save the best circuit")
    add_goal_flags(p_synth)
    add_run_flags(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_exp = sub.add_parser("experiment", help="run seeded batches and print ST/AS/OT rows")
    add_goal_flags(p_exp)
    add_run_flags(p_exp)
    p_exp.add_argument("--runs", type=int)
    p_exp.add_argument("--punish-sweep", type=float, nargs="+",
                       help="run one batch per punish value")
    p_exp.add_argument("--csv", help="also write the rows to this CSV file")
    p_exp.set_defaults(func=cmd_experiment)

    p_ver = sub.add_parser("verify", help="score a saved circuit against a goal")
    add_goal_flags(p_ver)
    p_ver.add_argument("--circuit", required=True, help="circuit JSON file")
    p_ver.add_argument("--satcost", type=int)
    p_ver.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench-matmul", help="structured vs naive multiplication counts")
    p_bench.add_argument("--max-total", type=int, default=64,
                         help="sweep all power-of-two (m,n,k) with m*n*k <= this")
    p_bench.add_argument("--triple", type=int, nargs=3, action="append", metavar=("M", "N", "K"),
                         help="benchmark an explicit triple instead of the sweep")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--csv", help="write rows to this file instead of stdout")
    p_bench.set_defaults(func=cmd_bench)

    p_brute = sub.add_parser("brute", help="exhaustive minimal-cost search")
    add_goal_flags(p_brute)
    p_brute.add_argument("--max-gates", type=int, required=True)
    p_brute.add_argument("--eps", type=float, default=1e-6)
    p_brute.add_argument("--budget", type=int, default=10 ** 8)
    p_brute.add_argument("--out", help="write the JSON report to this file")
    p_brute.set_defaults(func=cmd_brute)

    return parser


def _setting(args, config: dict, key: str):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    if key in PARAM_FIELDS:
        defaults = {f.name: f.default for cls in (FitnessParams, HqeaParams) for f in fields(cls)}
        return defaults[PARAM_FIELDS[key]]
    return DEFAULTS.get(key)


def _load_config(args) -> dict:
    path = getattr(args, "config", None)
    if not path:
        return {}
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError("config file must contain a JSON object")
    return {key: _config_value(key, val) for key, val in cfg.items() if val is not None}


def _config_value(key: str, val):
    """A config-file value checked against, and converted to, its flag's type."""
    kind = CONFIG_TYPES.get(key)
    if kind is None or (kind is str and isinstance(val, str)):
        return val
    if kind is int:
        return whole_number(val, f"config {key!r}")
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    raise ValueError(f"config {key!r} must be {'a number' if kind is float else 'a string'}, "
                     f"got {val!r}")


def _resolve_goal(args, config: dict):
    name = _setting(args, config, "goal")
    path = _setting(args, config, "goal_file")
    if bool(name) == bool(path):
        raise ValueError("exactly one of --goal / --goal-file is required")
    goal = targets.builtin(name) if name else targets.load_goal(path)
    gs = default_gate_set()
    gate_file = _setting(args, config, "gate_file")
    if gate_file:
        gs = extend_gate_set(gs, gate_file)
    return goal, gs


def _resolve_fitness(args, config: dict, goal) -> FitnessParams:
    satcost = _setting(args, config, "satcost")
    if satcost is None:
        satcost = goal.optimal_cost if goal.optimal_cost is not None else 0
    return FitnessParams(
        satcost=satcost,
        award=_setting(args, config, "award"),
        punish=_setting(args, config, "punish"),
        eps=_setting(args, config, "eps"),
    )


def _resolve_params(args, config: dict, goal) -> tuple[HqeaParams, int]:
    params = HqeaParams(
        fitness=_resolve_fitness(args, config, goal),
        pop_size=_setting(args, config, "pop"),
        measurements=_setting(args, config, "measurements"),
        max_gen=_setting(args, config, "max_gen"),
        seed=_setting(args, config, "seed"),
    )
    return params, _setting(args, config, "g")


def cmd_synth(args) -> int:
    config = _load_config(args)
    goal, gs = _resolve_goal(args, config)
    params, g = _resolve_params(args, config, goal)
    result = evolve(goal, gs, g, params)

    out_dir = _setting(args, config, "out_dir")
    os.makedirs(out_dir, exist_ok=True)
    save_circuit(result.best_circuit, goal.num_qubits, os.path.join(out_dir, "circuit.json"))
    with open(os.path.join(out_dir, "generations.csv"), "w") as f:
        f.write(result.history_csv())

    print(render_ascii(result.best_circuit, goal.num_qubits))
    print(f"cost:        {result.best_eval.allcost}")
    print(f"correctness: {result.best_eval.correctness:.12f}")
    print(f"fitness:     {result.best_eval.fitness:.6f}")
    gen = result.generation_found if result.success else "none"
    print(f"generation:  {gen} (of {result.generations_run} run)")
    return 0 if result.success else 2


def cmd_experiment(args) -> int:
    config = _load_config(args)
    goal, gs = _resolve_goal(args, config)
    params, g = _resolve_params(args, config, goal)
    n_runs = _setting(args, config, "runs")
    sweep = args.punish_sweep or [params.fitness.punish]

    header = "goal,satcost,g,max_gen,award,punish,runs,ST,AS,OT"
    rows = []
    fp = params.fitness
    for punish in sweep:
        stats = run_batch(goal, gs, g, replace(params, fitness=replace(fp, punish=punish)), n_runs)
        ot = "" if stats.ot is None else stats.ot
        name = goal.name or "custom"
        rows.append(f"{name},{fp.satcost},{g},{params.max_gen},{fp.award},{punish},"
                    f"{n_runs},{stats.st},{stats.as_mean},{ot}")
    print(header)
    for row in rows:
        print(row)
    csv_path = getattr(args, "csv", None)
    if csv_path:
        with open(csv_path, "w") as f:
            f.write(header + "\n")
            for row in rows:
                f.write(row + "\n")
    return 0


def cmd_verify(args) -> int:
    config = _load_config(args)
    goal, gs = _resolve_goal(args, config)
    circuit, m = load_circuit(args.circuit, gs)
    if m != goal.num_qubits:
        raise ValueError(f"circuit is on {m} qubits but goal is on {goal.num_qubits}")
    fp = _resolve_fitness(args, config, goal)
    result = evaluate_circuit(circuit, goal, fp)
    print(render_ascii(circuit, m))
    print(f"correctness: {result.correctness:.12f}")
    print(f"cost:        {result.allcost}")
    print(f"satcost:     {fp.satcost}")
    print(f"success:     {is_success(result, fp)}")
    return 0


def cmd_bench(args) -> int:
    rows = benchmark_sweep(max_total=args.max_total, seed=args.seed,
                           triples=[tuple(t) for t in args.triple] if args.triple else None)
    lines = [BENCH_CSV_HEADER] + [r.csv() for r in rows]
    if args.csv:
        with open(args.csv, "w") as f:
            f.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    return 0


def cmd_brute(args) -> int:
    goal, gs = _resolve_goal(args, {})
    report = min_cost_search(goal, args.max_gates, gs, eps=args.eps, budget=args.budget)
    text = report.dumps()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
