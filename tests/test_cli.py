import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from oracle_forge import kron_apply
from oracle_forge.cli import (build_parser, circuit_from_json, circuit_to_json, extend_gate_set,
                              goal_from_json, goal_to_json, main)
from oracle_forge.engine import evolve
from oracle_forge.evaluate import FitnessParams, GoalSpec, evaluate_circuit, is_success
from oracle_forge.linalg import identity
from oracle_forge.gates import default_gate_set
from oracle_forge.targets import builtin


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_synth_entangle2_succeeds(tmp_path, capsys):
    code, out, _ = run(capsys, "synth", "--goal", "entangle2", "--satcost", "6",
                       "--g", "6", "--punish", "20", "--seed", "7",
                       "--out-dir", str(tmp_path))
    assert code == 0
    assert "correctness: 1.0000" in out
    circuit = json.loads((tmp_path / "circuit.json").read_text())
    assert circuit["qubits"] == 2
    assert circuit["cost"] <= 6
    csv = (tmp_path / "generations.csv").read_text()
    assert csv.startswith("gen,best_fitness,best_correctness,best_cost\n")


def test_synth_invalid_satcost(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--goal", "entangle2", "--satcost", "-1",
                       "--out-dir", str(tmp_path))
    assert code == 1
    assert "error" in err


def test_synth_requires_exactly_one_goal(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--out-dir", str(tmp_path))
    assert code == 1
    code, _, err = run(capsys, "synth", "--goal", "entangle2",
                       "--goal-file", "x.json", "--out-dir", str(tmp_path))
    assert code == 1


def test_synth_identity_goal_file(tmp_path, capsys):
    goal_path = tmp_path / "identity.json"
    goal_path.write_text(json.dumps(goal_to_json(GoalSpec(2, identity(4), name="identity"))))
    code, out, _ = run(capsys, "synth", "--goal-file", str(goal_path),
                       "--g", "4", "--max-gen", "50", "--seed", "3",
                       "--out-dir", str(tmp_path))
    assert code == 0
    circuit = json.loads((tmp_path / "circuit.json").read_text())
    assert circuit["gates"] == [] and circuit["cost"] == 0


def test_synth_exhausted_returns_2(tmp_path, capsys):
    # punish=1 makes the empty circuit dominate; no success possible
    code, _, _ = run(capsys, "synth", "--goal", "entangle2", "--satcost", "6",
                     "--g", "6", "--punish", "1", "--max-gen", "5", "--seed", "0",
                     "--out-dir", str(tmp_path))
    assert code == 2


def test_synth_deterministic_outputs(tmp_path, capsys):
    args = ("synth", "--goal", "entangle2", "--satcost", "6", "--g", "6",
            "--seed", "11")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *args, "--out-dir", str(d1))[0] == 0
    assert run(capsys, *args, "--out-dir", str(d2))[0] == 0
    assert (d1 / "circuit.json").read_bytes() == (d2 / "circuit.json").read_bytes()
    assert (d1 / "generations.csv").read_bytes() == (d2 / "generations.csv").read_bytes()


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"satcost": 6, "g": 6, "punish": 20, "max_gen": 60}))
    code, _, _ = run(capsys, "synth", "--goal", "entangle2", "--config", str(cfg),
                     "--seed", "7", "--out-dir", str(tmp_path))
    assert code == 0
    # flag overrides config: max_gen 1 exhausts before success on most seeds
    code, out, _ = run(capsys, "synth", "--goal", "entangle2", "--config", str(cfg),
                       "--seed", "7", "--max-gen", "1", "--out-dir", str(tmp_path))
    csv = (tmp_path / "generations.csv").read_text()
    assert len(csv.splitlines()) == 2  # header + one generation


def test_experiment_row_shape(tmp_path, capsys):
    csv_path = tmp_path / "stats.csv"
    code, out, _ = run(capsys, "experiment", "--goal", "entangle2", "--satcost", "6",
                       "--g", "6", "--max-gen", "30", "--runs", "2", "--seed", "0",
                       "--csv", str(csv_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "goal,satcost,g,max_gen,award,punish,runs,ST,AS,OT"
    assert lines[1].startswith("entangle2,6,6,30,")
    assert csv_path.read_text().splitlines() == lines


def test_experiment_punish_sweep(capsys):
    code, out, _ = run(capsys, "experiment", "--goal", "entangle2", "--satcost", "6",
                       "--g", "6", "--max-gen", "10", "--runs", "1", "--seed", "0",
                       "--punish-sweep", "1", "5", "20")
    assert code == 0
    assert len(out.splitlines()) == 4  # header + three rows


def test_verify_reference_swap(tmp_path, capsys):
    circuit = {"qubits": 2, "gates": [{"gate": "CNOT", "top": 0},
                                      {"gate": "CNOT2", "top": 0},
                                      {"gate": "CNOT", "top": 0}], "cost": 6}
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(circuit))
    code, out, _ = run(capsys, "verify", "--goal", "swap", "--circuit", str(path))
    assert code == 0
    assert "correctness: 1.0000" in out
    assert "cost:        6" in out
    assert "success:     True" in out


def test_verify_empty_circuit_vs_entangle2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"qubits": 2, "gates": [], "cost": 0}))
    code, out, _ = run(capsys, "verify", "--goal", "entangle2", "--circuit", str(path))
    assert code == 0
    assert "correctness: 0.3535" in out


def test_verify_reads_a_wire_in_a_circuit_file_as_the_wire(tmp_path, capsys):
    # the wire is keyed by top 0, whatever top the file gives it
    outs = []
    for wires in ([], [{"gate": "wire", "top": 1}]):
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps({"qubits": 2, "gates": [{"gate": "H", "top": 0}, *wires,
                                                           {"gate": "CNOT", "top": 0}]}))
        code, out, _ = run(capsys, "verify", "--goal", "entangle2", "--circuit", str(path))
        outs.append((code, out))
    assert outs[1] == outs[0] and outs[0][0] == 0
    assert "correctness: 1.0000" in outs[0][1] and "cost:        3" in outs[0][1]


def test_verify_a_circuit_on_too_many_qubits_exits_1(tmp_path, capsys):
    # the placement table for the file's qubit count was built before it was
    # compared with the goal's, and failed in numpy
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"qubits": 100, "gates": [{"gate": "H", "top": 0}]}))
    code, out, err = run(capsys, "verify", "--goal", "entangle2", "--circuit", str(path))
    assert (code, out, err) == (1, "", "error: circuit qubits must be from 1 to 10, got 100\n")


def test_verify_wrong_goal_not_success(tmp_path, capsys):
    path = tmp_path / "e2.json"
    path.write_text(json.dumps({"qubits": 2, "gates": [{"gate": "H", "top": 0},
                                                       {"gate": "CNOT", "top": 0}]}))
    code, out, _ = run(capsys, "verify", "--goal", "swap", "--circuit", str(path))
    assert code == 0
    assert "success:     False" in out


def test_verify_malformed_circuit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "--goal", "swap", "--circuit", str(path))
    assert code == 1


def test_bench_matmul_triple(capsys):
    code, out, _ = run(capsys, "bench-matmul", "--triple", "8", "2", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,n,k,structured_count,naive_count,predicted_speedup"
    fields = lines[1].split(",")
    assert fields[:5] == ["8", "2", "8", "32768", "2097152"]
    assert fields[5:] == ["True"]


def test_bench_matmul_sweep_csv(tmp_path, capsys):
    # the rows are printed as well as written, as every report is
    path = tmp_path / "bench.csv"
    code, out, _ = run(capsys, "bench-matmul", "--max-total", "16", "--csv", str(path))
    assert code == 0
    assert len(out.splitlines()) > 5
    assert path.read_text() == out


@pytest.mark.parametrize("max_total", ["1", "0", "-5"])
def test_bench_matmul_with_no_triple_exits_1(capsys, max_total):
    code, out, err = run(capsys, "bench-matmul", "--max-total", max_total)
    assert code == 1 and out == ""
    assert err.strip().splitlines() == [f"error: max_total must be at least 2, got {max_total}"]


def test_bench_matmul_past_the_largest_dimension_exits_1_before_any_triple(capsys,
                                                                             monkeypatch):
    def run_triple(*args):
        raise AssertionError(f"triple {args[:3]} was run")

    monkeypatch.setattr(kron_apply, "benchmark_triple", run_triple)
    code, out, err = run(capsys, "bench-matmul", "--max-total", "2048")
    assert code == 1 and out == ""
    assert err.strip().splitlines() == ["error: max_total must be below 2048, got 2048"]


@pytest.mark.parametrize("argv", [
    ["synth", "--goal", "entangle2"],
    ["experiment", "--goal", "entangle2", "--runs", "1"],
])
def test_negative_seed_exits_1_naming_the_seed(tmp_path, capsys, monkeypatch, argv):
    # numpy's own error named no flag; synth would write into its --out-dir, "."
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 1 and out == ""
    assert err.strip().splitlines() == ["error: seed must be non-negative, got -1"]
    assert list(tmp_path.iterdir()) == []


def test_bench_matmul_has_no_seed_flag(capsys):
    # its counts depend only on the triples, so a seed would change no output
    with pytest.raises(SystemExit) as exc:
        main(["bench-matmul", "--max-total", "4", "--seed", "1"])
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert "unrecognized arguments: --seed 1" in err


def test_brute_subcommand(tmp_path, capsys):
    # SWAP needs cost 6, which no single gate reaches
    path = tmp_path / "none.json"
    code, out, _ = run(capsys, "brute", "--goal", "swap", "--max-gates", "1", "--out", str(path))
    assert code == 0
    assert path.read_text() == out
    assert '"min_cost": null' in out and '"witness": null' in out
    assert json.loads(out) == {"min_cost": None, "witness": None, "circuits_examined": 9}


@pytest.mark.parametrize("name, max_gates", [("entangle2", 5), ("swap", 5), ("entangle3", 4)])
def test_brute_witness_reads_back_as_a_circuit_at_the_min_cost(capsys, name, max_gates):
    # the benchmark's brute queries that find a match: the report's witness
    # entries are a circuit file's gates
    code, out, _ = run(capsys, "brute", "--goal", name, "--max-gates", str(max_gates))
    assert code == 0
    data = json.loads(out)
    goal = builtin(name)
    circuit, m = circuit_from_json({"qubits": goal.num_qubits, "gates": data["witness"]},
                                   default_gate_set())
    fp = FitnessParams(satcost=data["min_cost"])
    result = evaluate_circuit(circuit, goal, fp)
    assert is_success(result, fp)
    assert result.allcost == data["min_cost"]


def test_brute_over_the_circuit_budget_exits_1_at_once(capsys):
    # the guard stops counting circuits once the count passes the budget, so
    # a huge gate budget neither builds a huge integer nor prints one
    t0 = time.perf_counter()
    code, out, err = run(capsys, "brute", "--goal", "entangle2", "--max-gates", "1000000")
    assert time.perf_counter() - t0 < 0.5
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "error: over the circuit budget: the search would examine more than 100000000 circuits"]


def test_brute_negative_circuit_budget_exits_1(capsys):
    code, out, err = run(capsys, "brute", "--goal", "entangle2", "--max-gates", "3",
                         "--budget", "-1")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: the circuit budget must be non-negative, got -1"]


def test_circuit_json_round_trips_through_verify(tmp_path, capsys):
    code, out, _ = run(capsys, "synth", "--goal", "entangle2", "--satcost", "6",
                       "--g", "6", "--seed", "7", "--out-dir", str(tmp_path))
    assert code == 0
    corr_synth = [l for l in out.splitlines() if l.startswith("correctness")][0]
    code, out, _ = run(capsys, "verify", "--goal", "entangle2", "--satcost", "6",
                       "--circuit", str(tmp_path / "circuit.json"))
    assert code == 0
    corr_verify = [l for l in out.splitlines() if l.startswith("correctness")][0]
    assert corr_synth == corr_verify


GOLDEN = Path(__file__).parent / "data" / "criterion9"


def test_criterion_9_config_matches_pinned_outputs(tmp_path, capsys):
    # circuit.json and generations.csv of this run, recorded before the
    # generation-at-once evaluator replaced the per-candidate loop
    code, _, _ = run(capsys, "synth", "--goal", "entangle2", "--satcost", "6", "--g", "6",
                     "--punish", "20", "--seed", "13", "--out-dir", str(tmp_path))
    assert code == 0
    for name in ("circuit.json", "generations.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


REPORTS = Path(__file__).parent / "data" / "reports"


@pytest.mark.parametrize("argv, flag, name", [
    (("bench-matmul", "--max-total", "16"), "--csv", "bench-matmul.csv"),
    (("experiment", "--goal", "entangle2", "--satcost", "6", "--g", "6", "--max-gen", "30",
      "--runs", "2", "--seed", "0"), "--csv", "experiment.csv"),
    (("brute", "--goal", "entangle2", "--max-gates", "3"), "--out", "brute.json"),
    # rows of 20 placements of 9, past one int64 word of the engine's row keys
    (("synth", "--goal", "controlled_s", "--g", "20", "--max-gen", "40", "--seed", "1"),
     "--out-dir", "synth-g20"),
])
def test_reports_match_pinned_bytes(tmp_path, capsys, monkeypatch, argv, flag, name):
    # each report's stdout and file, recorded before the CLI became the one
    # place that formats them; a report is printed whether or not a file is
    # asked for.  A synth run's pin is a directory of what it prints and the
    # generations.csv it writes into --out-dir (the working directory by
    # default), recorded before the engine keyed rows by integers; it exits 2
    # when no circuit meets the goal
    monkeypatch.chdir(tmp_path)
    pin = REPORTS / name
    written, exit_code = ("generations.csv", 2) if pin.is_dir() else ("", 0)
    printed = (pin / "stdout.txt" if written else pin).read_bytes()
    code, out, _ = run(capsys, *argv)
    assert code == exit_code and out.encode() == printed
    code, out, _ = run(capsys, *argv, flag, name)
    assert code == exit_code and out.encode() == printed
    assert (tmp_path / name / written).read_bytes() == (pin / written).read_bytes()


FORMATS = Path(__file__).parent / "data" / "formats"


def test_file_forms_match_pinned_bytes(tmp_path, capsys):
    # a goal file as goal_to_json writes a built-in, a gate file with a user
    # one-qubit and two-qubit gate, a circuit file that uses both orientations
    # of the latter, and the verify and synth runs that read them, recorded
    # before the JSON and text forms moved into cli
    files = [str(FORMATS / name) for name in ("goal.json", "gates.json", "circuit.json")]
    goal_file, gate_file, circuit_file = files
    code, out, _ = run(capsys, "verify", "--goal-file", goal_file, "--gate-file", gate_file,
                       "--circuit", circuit_file)
    assert code == 0 and out.encode() == (FORMATS / "verify.txt").read_bytes()
    code, out, _ = run(capsys, "synth", "--goal-file", goal_file, "--gate-file", gate_file,
                       "--g", "4", "--max-gen", "20", "--seed", "3", "--out-dir", str(tmp_path))
    assert code == 0 and out.encode() == (FORMATS / "synth" / "stdout.txt").read_bytes()
    for name in ("circuit.json", "generations.csv"):
        assert (tmp_path / name).read_bytes() == (FORMATS / "synth" / name).read_bytes()

    goal, gates, circuit = (json.loads(Path(path).read_text()) for path in files)
    assert (json.dumps(goal_to_json(goal_from_json(goal))) + "\n").encode() == \
        Path(goal_file).read_bytes()
    gs = extend_gate_set(default_gate_set(), gates)
    assert circuit_to_json(*circuit_from_json(circuit, gs))["gates"] == circuit["gates"]


def test_importing_the_package_loads_no_boundary_module():
    # the command line and its file formats stay out of a plain import, which
    # each of the benchmark's set-up probes times in a fresh interpreter
    boundary = ("oracle_forge.cli", "argparse", "csv", "json")
    probe = f"import sys, oracle_forge; print([m for m in {boundary!r} if m in sys.modules])"
    src = str(Path(kron_apply.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("command", ["synth", "experiment"])
@pytest.mark.parametrize("g", ["0", "-3"])
def test_gate_budget_below_one_exits_1(tmp_path, capsys, command, g, monkeypatch):
    monkeypatch.chdir(tmp_path)  # synth's default --out-dir
    extra = ("--runs", "2") if command == "experiment" else ()
    code, _, err = run(capsys, command, "--goal", "entangle2", "--g", g, *extra)
    assert code == 1
    assert "gate budget must be at least 1" in err
    assert list(tmp_path.iterdir()) == []


def spy_on_batches(monkeypatch):
    """Record the (g, params, n_runs) of each cli.run_batch call instead of running it."""
    from oracle_forge import cli
    from oracle_forge.engine import BatchStats

    seen = []

    def fake_batch(goal, gs, g, params, n_runs):
        seen.append((g, params, n_runs))
        return BatchStats(st=0, as_mean=0.0, ot=None, results=[])

    monkeypatch.setattr(cli, "run_batch", fake_batch)
    return seen


def test_experiment_sweep_keeps_every_other_setting(monkeypatch, capsys):
    from oracle_forge import cli
    from oracle_forge.engine import HqeaParams

    @dataclass(frozen=True)
    class CustomParams(HqeaParams):
        delta_theta: float = 0.07
        mutation_prob: float = 0.2
        restart_after: int = 3

        def __post_init__(self):
            super().__post_init__()
            # only the first params built are custom: a sweep that builds its
            # params anew, instead of replacing punish, gets the library's values
            monkeypatch.setattr(cli, "HqeaParams", HqeaParams)

    monkeypatch.setattr(cli, "HqeaParams", CustomParams)
    seen = spy_on_batches(monkeypatch)
    code, _, _ = run(capsys, "experiment", "--goal", "entangle2", "--runs", "1",
                     "--pop", "9", "--punish-sweep", "1", "5")
    assert code == 0
    assert [p.fitness.punish for _, p, _ in seen] == [1.0, 5.0]
    for _, p, _ in seen:
        assert (p.delta_theta, p.mutation_prob, p.restart_after, p.pop_size) == (0.07, 0.2, 3, 9)


@pytest.mark.parametrize("bad", ["-1", "nan"])
def test_experiment_checks_every_sweep_value_before_the_first_batch(monkeypatch, capsys, bad):
    seen = spy_on_batches(monkeypatch)
    code, out, err = run(capsys, "experiment", "--goal", "entangle2", "--runs", "1",
                         "--punish-sweep", "5", "20", bad)
    assert code == 1
    assert seen == [] and out == ""
    assert "punish" in err


def test_run_defaults_come_from_the_parameter_dataclasses(monkeypatch, tmp_path, capsys):
    from dataclasses import fields

    from oracle_forge.engine import HqeaParams
    from oracle_forge.evaluate import FitnessParams

    seen = spy_on_batches(monkeypatch)
    assert run(capsys, "experiment", "--goal", "entangle2")[0] == 0
    assert seen.pop() == (8, HqeaParams(FitnessParams(satcost=3, award=1.0, punish=20.0,
                                                      eps=1e-6),
                                        pop_size=20, measurements=10, max_gen=100, seed=0), 20)
    monkeypatch.setattr({f.name: f for f in fields(HqeaParams)}["pop_size"], "default", 7)
    monkeypatch.setattr({f.name: f for f in fields(FitnessParams)}["punish"], "default", 3.5)
    assert run(capsys, "experiment", "--goal", "entangle2")[0] == 0
    _, params, _ = seen.pop()
    assert (params.pop_size, params.fitness.punish) == (7, 3.5)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pop": 9}))
    assert run(capsys, "experiment", "--goal", "entangle2", "--config", str(cfg))[0] == 0
    assert seen.pop()[1].pop_size == 9
    assert run(capsys, "experiment", "--goal", "entangle2", "--config", str(cfg),
               "--pop", "11")[0] == 0
    assert seen.pop()[1].pop_size == 11


def test_brute_and_synth_share_the_eps_default():
    from dataclasses import fields

    from oracle_forge.evaluate import FitnessParams

    parser, _ = build_parser()
    brute = parser.parse_args(["brute", "--goal", "entangle2", "--max-gates", "1"])
    synth = parser.parse_args(["synth", "--goal", "entangle2"])
    assert brute.eps == synth.eps == {f.name: f.default for f in fields(FitnessParams)}["eps"]


def test_experiment_has_no_out_dir(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--goal", "entangle2", "--runs", "1", "--max-gen", "3",
              "--out-dir", str(tmp_path / "od")])
    assert exc.value.code == 1  # a usage error, not a run that ran out of generations
    assert "unrecognized arguments: --out-dir" in capsys.readouterr().err
    assert not (tmp_path / "od").exists()
    # a config out_dir names no flag of experiment, so it is ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "od"), "runs": 1, "max_gen": 3}))
    code, out, _ = run(capsys, "experiment", "--goal", "entangle2", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[1].startswith("entangle2,3,8,3,")
    assert not (tmp_path / "od").exists()


def test_brute_has_no_config_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["brute", "--goal", "entangle2", "--max-gates", "1", "--config", "x.json"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_gate_file_with_a_fractional_cost_exits_1(tmp_path, capsys):
    path = tmp_path / "gates.json"
    path.write_text(json.dumps([{"name": "X", "arity": 1, "cost": 1.9,
                                 "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}]))
    code, out, err = run(capsys, "brute", "--goal", "swap", "--max-gates", "1",
                         "--gate-file", str(path))
    assert (code, out) == (1, "")
    assert err == "error: gate 'X': cost must be a whole number, got 1.9\n"


@pytest.mark.parametrize("config,message", [
    ({"g": 3.5}, "config 'g' must be a whole number, got 3.5"),
    ({"pop": "5"}, "config 'pop' must be a whole number, got '5'"),
    ({"seed": True}, "config 'seed' must be a whole number, got True"),
    ({"punish": "20"}, "config 'punish' must be a number, got '20'"),
    ({"out_dir": 3}, "config 'out_dir' must be a string, got 3"),
])
def test_config_value_of_the_wrong_type_exits_1(tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, "synth", "--goal", "entangle2", "--config", str(cfg),
                       "--out-dir", str(tmp_path / "out"))
    assert (code, err) == (1, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_config_values_take_their_flags_types(monkeypatch, tmp_path, capsys):
    from oracle_forge import cli

    seen = []

    def spy(goal, gs, g, params):
        seen.append((g, params))
        return evolve(goal, gs, g, replace(params, max_gen=1))

    monkeypatch.setattr(cli, "evolve", spy)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"g": 6.0, "punish": 20, "satcost": None, "note": [1]}))
    code, _, _ = run(capsys, "synth", "--goal", "entangle2", "--config", str(cfg),
                     "--out-dir", str(tmp_path))
    assert code in (0, 2)
    [(g, params)] = seen
    assert type(g) is int and g == 6
    assert type(params.fitness.punish) is float and params.fitness.punish == 20.0
    assert params.fitness.satcost == builtin("entangle2").optimal_cost


def test_config_keys_that_name_no_flag_are_ignored(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"func": 1, "note": [1]}))
    code, out, _ = run(capsys, "synth", "--goal", "entangle2", "--config", str(cfg),
                       "--max-gen", "2", "--out-dir", str(tmp_path))
    assert code in (0, 2)
    assert out.startswith("q0: ")
    assert (tmp_path / "circuit.json").exists()


@pytest.mark.parametrize("argv,name,content,message", [
    (["brute", "--goal", "swap", "--max-gates", "1", "--gate-file"], "gates.json",
     {"name": "X", "arity": 1, "cost": 1, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
     "a gate file must be a JSON list, got an object"),
    (["brute", "--max-gates", "1", "--goal-file"], "goal.json", [[1, 0], [0, 1]],
     "a goal file must be a JSON object, got a list"),
    (["verify", "--goal", "entangle2", "--circuit"], "circuit.json", {"qubits": 2, "gates": 5},
     "circuit gates must be a JSON list, got 5"),
    (["synth", "--goal", "swap", "--config"], "cfg.json", [{"g": 3}],
     "a config file must be a JSON object, got a list"),
    # a matrix's entries are judged by require_unitary, a gate matrix's shape by Gate,
    # and each message names the gate or the goal matrix
    (["brute", "--goal", "swap", "--max-gates", "1", "--gate-file"], "gates.json",
     [{"name": "X", "arity": 1, "cost": 1, "matrix": [[[0, 0], [1, 0], [0, 0]]] * 2}],
     "gate 'X': matrix must be 2x2 or 4x4, got shape (2, 3)"),
    (["brute", "--goal", "swap", "--max-gates", "1", "--gate-file"], "gates.json",
     [{"name": "X", "arity": 1, "cost": 1, "matrix": []}],
     "gate 'X': matrix must be a list of equally long rows of [re, im] number pairs"),
    (["brute", "--goal", "swap", "--max-gates", "1", "--gate-file"], "gates.json",
     [{"name": "X", "arity": 1, "cost": 1, "matrix": [[[0, 0], [math.inf, 0]], [[1, 0], [0, 0]]]}],
     "gate 'X' has a non-finite entry"),
    # U^dag U overflows to inf without numpy's overflow warning
    (["brute", "--goal", "swap", "--max-gates", "1", "--gate-file"], "gates.json",
     [{"name": "X", "arity": 1, "cost": 1, "matrix": [[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]]}],
     "gate 'X' is not unitary: max |U^dag U - I| = inf, over the tolerance 1e-10"),
    (["brute", "--max-gates", "1", "--goal-file"], "goal.json", {"matrix": []},
     "goal matrix must be a list of equally long rows of [re, im] number pairs"),
    # no qubit count and no 2^m x 2^m shape for 1 to 10 qubits, as in the last
    # two cases: the message names the shape alone, not a count the file never gave
    (["brute", "--max-gates", "1", "--goal-file"], "goal.json", {"matrix": [[[1, 0]]] * 2048},
     "goal matrix of shape (2048, 1) is not 2^qubits x 2^qubits for 1 to 10 qubits"),
    (["brute", "--max-gates", "1", "--goal-file"], "goal.json",
     {"matrix": [[[math.inf, 0], [0, 0]], [[0, 0], [1, 0]]]}, "goal matrix has a non-finite entry"),
    (["brute", "--max-gates", "1", "--goal-file"], "goal.json",
     {"matrix": [[[float(i == j), 0] for j in range(3)] for i in range(3)]},
     "goal matrix of shape (3, 3) is not 2^qubits x 2^qubits for 1 to 10 qubits"),
    (["brute", "--max-gates", "1", "--goal-file"], "goal.json", {"matrix": [[[1, 0]]]},
     "goal matrix of shape (1, 1) is not 2^qubits x 2^qubits for 1 to 10 qubits"),
])
def test_file_of_the_wrong_json_shape_exits_1(tmp_path, capsys, argv, name, content, message):
    path = tmp_path / name
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,name,content,message", [
    (["brute", "--max-gates", "1", "--goal-file"], "goal.json", {"qubits": 1},
     "a goal file has no 'matrix' field"),
    (["brute", "--goal", "swap", "--max-gates", "1", "--gate-file"], "gates.json",
     [{"name": "X", "arity": 1, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}],
     "gate entry 0 has no 'cost' field"),
    (["verify", "--goal", "entangle2", "--circuit"], "circuit.json",
     {"qubits": 2, "gates": [{"gate": "H"}]}, "circuit gate 0 has no 'top' field"),
    (["verify", "--goal", "entangle2", "--circuit"], "circuit.json", {"gates": []},
     "a circuit file has no 'qubits' field"),
])
def test_file_missing_a_required_field_exits_1(tmp_path, capsys, argv, name, content, message):
    path = tmp_path / name
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["synth", "--out-dir", "out", "--goal-file"],
    ["brute", "--goal", "swap", "--max-gates", "1", "--out", "out.json", "--gate-file"],
    ["verify", "--goal", "swap", "--circuit"],
    ["experiment", "--goal", "swap", "--runs", "1", "--csv", "out.csv", "--config"],
], ids=["goal-file", "gate-file", "circuit", "config"])
def test_a_missing_input_file_exits_1_naming_its_path(tmp_path, capsys, monkeypatch, argv):
    # every input file is read by the one reader, before any output is written
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "absent.json")
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and "'absent.json'" in line
    assert list(tmp_path.iterdir()) == []


def test_goal_file_with_a_negative_optimal_cost_exits_1(tmp_path, capsys):
    path = tmp_path / "goal.json"
    data = goal_to_json(builtin("entangle2"))
    data["optimal_cost"] = -3
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "experiment", "--goal-file", str(path), "--satcost", "5",
                         "--runs", "1", "--max-gen", "1")
    assert (code, out, err) == (1, "", "error: goal optimal_cost must be non-negative, got -3\n")


@pytest.mark.parametrize("name, shown", [({"a": 1}, "{'a': 1}"), (["a"], "['a']"), (7, "7")])
def test_goal_file_with_a_name_that_is_no_string_exits_1(tmp_path, capsys, name, shown):
    # an object name was formatted into the experiment row as {'a': 1}
    path = tmp_path / "goal.json"
    data = goal_to_json(builtin("entangle2"))
    data["name"] = name
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "experiment", "--goal-file", str(path), "--runs", "1",
                         "--max-gen", "1")
    assert (code, out, err) == (1, "", f"error: goal name must be a string, got {shown}\n")


@pytest.mark.parametrize("name", ["a,b", '"quoted" name', "line\nbreak"])
def test_experiment_row_keeps_a_goal_name_in_one_field(tmp_path, capsys, name):
    # a comma in the name gave the row 11 fields under the 10-column header
    path, csv_path = tmp_path / "goal.json", tmp_path / "stats.csv"
    path.write_text(json.dumps(goal_to_json(replace(builtin("entangle2"), name=name))))
    code, out, _ = run(capsys, "experiment", "--goal-file", str(path), "--runs", "1",
                       "--max-gen", "1", "--csv", str(csv_path))
    assert code == 0
    header, row = csv.reader(io.StringIO(out, newline=""))
    assert len(header) == len(row) == 10
    assert row[0] == name
    assert csv_path.read_text() == out


@pytest.mark.parametrize("argv, message", [
    # a threshold of 1 - inf accepted the empty circuit as a match
    (("brute", "--goal", "entangle2", "--max-gates", "3", "--eps", "inf"),
     "eps must be below 1, got inf"),
    (("brute", "--goal", "entangle2", "--max-gates", "3", "--eps", "1"),
     "eps must be below 1, got 1.0"),
    (("brute", "--goal", "entangle2", "--max-gates", "3", "--eps", "nan"),
     "eps must be positive"),
    # these ran to the end and printed fitness: nan
    (("synth", "--goal", "entangle2", "--punish", "nan"), "award and punish must be finite"),
    (("synth", "--goal", "entangle2", "--eps", "nan"), "eps must be positive"),
    (("synth", "--goal", "entangle2", "--eps", "inf"), "eps must be below 1, got inf"),
    (("synth", "--goal", "entangle2", "--award", "inf"), "award and punish must be finite"),
    (("experiment", "--goal", "entangle2", "--runs", "1", "--punish-sweep", "20", "nan"),
     "award and punish must be finite"),
    (("experiment", "--goal", "entangle2", "--runs", "1", "--award=-inf"),
     "award and punish must be finite"),
])
def test_non_finite_or_out_of_range_fitness_settings_exit_1(tmp_path, capsys, monkeypatch, argv,
                                                             message):
    monkeypatch.chdir(tmp_path)  # synth's default --out-dir
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_console_script_is_the_cli_main():
    import importlib

    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["oracle-forge"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


X_MATRIX = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]


@pytest.mark.parametrize("argv, cost, message", [
    # four gates of cost 2^62 sum past int64: the batch cost wrapped to a
    # negative number, and synth returned that circuit as its best
    (["synth", "--goal", "swap", "--g", "4", "--max-gen", "30", "--out-dir", "out"], 1 << 62,
     "the cost of 4 gates must be below 2^63, got 18446744073709551616"),
    (["brute", "--goal", "swap", "--max-gates", "4"], 1 << 62,
     "the cost of 4 gates must be below 2^63, got 18446744073709551616"),
    # a cost that no int64 holds raised OverflowError building the table
    (["brute", "--goal", "swap", "--max-gates", "1"], 1e19,
     "gate 'X': cost must be below 2^63, got 10000000000000000000"),
], ids=["synth-sum", "brute-sum", "gate"])
def test_gate_cost_past_int64_exits_1(tmp_path, capsys, monkeypatch, argv, cost, message):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "gates.json"
    path.write_text(json.dumps([{"name": "X", "arity": 1, "cost": cost, "matrix": X_MATRIX}]))
    code, out, err = run(capsys, *argv, "--gate-file", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("flags", [["--satcost", str(10 ** 20)], ["--config", "cfg.json"]],
                         ids=["flag", "config"])
def test_satcost_past_int64_exits_1(tmp_path, capsys, monkeypatch, flags):
    # the fitness subtraction raised OverflowError
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"satcost": 1e20}))
    code, out, err = run(capsys, "synth", "--goal", "swap", "--max-gen", "2", *flags,
                         "--out-dir", str(tmp_path / "out"))
    assert (code, out, err) == (1, "", "error: satcost must be below 2^63, "
                                       "got 100000000000000000000\n")


@pytest.mark.parametrize("field, value, argv, message", [
    # the fitness subtraction raised OverflowError
    ("optimal_cost", 10 ** 30, ["synth", "--max-gen", "2", "--out-dir", "out"],
     f"goal optimal_cost must be below 2^63, got {10 ** 30}"),
    # 1 << qubits raised MemoryError, and a negative count "negative shift count"
    ("qubits", 10 ** 18, ["brute", "--max-gates", "1"],
     f"goal qubits must be from 1 to 10, got {10 ** 18}"),
    ("qubits", -1, ["brute", "--max-gates", "1"], "goal qubits must be from 1 to 10, got -1"),
], ids=["optimal_cost", "huge-qubits", "negative-qubits"])
def test_goal_file_number_out_of_range_exits_1(tmp_path, capsys, monkeypatch, field, value, argv,
                                              message):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "goal.json"
    data = goal_to_json(builtin("entangle2"))
    data[field] = value
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, "--goal-file", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_verify_a_circuit_on_a_huge_qubit_count_exits_1(tmp_path, capsys):
    # 1 << qubits raised MemoryError
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"qubits": 10 ** 18, "gates": [{"gate": "H", "top": 0}]}))
    code, out, err = run(capsys, "verify", "--goal", "entangle2", "--circuit", str(path))
    assert (code, out, err) == (1, "",
                                f"error: circuit qubits must be from 1 to 10, got {10 ** 18}\n")


def test_a_gate_budget_too_large_to_hold_exits_1(tmp_path, capsys):
    # the population alone is 20 x 4 x 10^15 float64s, past any address space,
    # so the allocation fails whatever the machine's overcommit setting; numpy's
    # MemoryError was a traceback
    code, out, err = run(capsys, "synth", "--goal", "swap", "--g", str(10 ** 15),
                         "--out-dir", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1


def test_a_memory_error_without_a_message_exits_1(monkeypatch, tmp_path, capsys):
    from oracle_forge import cli

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "evolve", out_of_memory)
    code, out, err = run(capsys, "synth", "--goal", "swap", "--out-dir", str(tmp_path))
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_verify_a_circuit_on_zero_qubits_names_the_field(tmp_path, capsys):
    path = tmp_path / "none.json"
    path.write_text(json.dumps({"qubits": 0, "gates": []}))
    code, out, err = run(capsys, "verify", "--goal", "entangle2", "--circuit", str(path))
    assert (code, out, err) == (1, "", "error: circuit qubits must be from 1 to 10, got 0\n")


@pytest.mark.parametrize("argv", [
    ["synth", "--goal", "swap", "--bogus"],
    ["synth", "--goal", "swap", "--eps", "small"],
    ["brute", "--goal", "swap"],  # --max-gates is required
    ["nonesuch"],
    [],
], ids=["unknown-flag", "not-a-number", "missing-flag", "unknown-command", "no-command"])
def test_usage_errors_exit_1_with_argparses_message(capsys, argv):
    # exit 2 means max_gen ran out without success; a script must tell them apart
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.startswith("usage: oracle-forge") and "error: " in err


def test_whole_number_flags_take_a_float_literal_without_a_fraction(tmp_path, capsys):
    parser, _ = build_parser()
    args = parser.parse_args(["synth", "--goal", "swap", "--satcost", "2.0", "--max-gen", "1e1",
                              "--g", "8", "--pop", "2E1", "--seed", "-3.0"])
    assert (args.satcost, args.max_gen, args.g, args.pop, args.seed) == (2, 10, 8, 20, -3)
    assert all(type(x) is int for x in (args.satcost, args.max_gen, args.g, args.pop, args.seed))
    args = parser.parse_args(["bench-matmul", "--triple", "2.0", "1e0", "4", "--max-total", "8.0"])
    assert args.triple == [[2, 1, 4]] and args.max_total == 8
    args = parser.parse_args(["brute", "--goal", "swap", "--max-gates", "3.0", "--budget", "1e6"])
    assert (args.max_gates, args.budget) == (3, 10 ** 6)
    # and a run takes them, as it takes the same values from a config file
    circuit = tmp_path / "e2.json"
    circuit.write_text(json.dumps({"qubits": 2, "gates": [{"gate": "H", "top": 0},
                                                          {"gate": "CNOT", "top": 0}]}))
    code, out, _ = run(capsys, "verify", "--goal", "entangle2", "--satcost", "2.0",
                       "--circuit", str(circuit))
    assert code == 0 and "satcost:     2\n" in out
    # punish=1 makes the empty circuit dominate, so every generation runs
    code, out, _ = run(capsys, "synth", "--goal", "entangle2", "--satcost", "6.0",
                       "--punish", "1", "--max-gen", "1e1", "--seed", "0",
                       "--out-dir", str(tmp_path / "out"))
    assert code == 2 and "generation:  none (of 10 run)\n" in out


@pytest.mark.parametrize("flag, value", [("--satcost", "1.5"), ("--max-gen", "2.5e0"),
                                         ("--g", "inf"), ("--seed", "nan"), ("--pop", "1e400"),
                                         ("--runs", "many")])
def test_a_fractional_whole_number_flag_is_rejected_with_the_flag_named(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--goal", "swap", flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.splitlines()[-1] == (f"oracle-forge experiment: error: argument {flag}: "
                                    f"the value must be a whole number, got {value!r}")


def test_a_whole_number_flag_past_int64_reaches_the_cost_check(tmp_path, capsys):
    code, out, err = run(capsys, "synth", "--goal", "swap", "--satcost", "1e20", "--max-gen", "2",
                         "--out-dir", str(tmp_path))
    assert (code, out, err) == (1, "", "error: satcost must be below 2^63, "
                                       "got 100000000000000000000\n")
