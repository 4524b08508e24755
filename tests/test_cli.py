import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from oracle_forge.cli import main
from oracle_forge.engine import evolve
from oracle_forge.evaluate import GoalSpec
from oracle_forge.linalg import identity
from oracle_forge.targets import builtin, save_goal


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
    save_goal(GoalSpec(2, identity(4), name="identity"), goal_path)
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
    path = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench-matmul", "--max-total", "16", "--csv", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) > 5


def test_brute_subcommand(capsys):
    code, out, _ = run(capsys, "brute", "--goal", "entangle2", "--max-gates", "3")
    assert code == 0
    data = json.loads(out)
    assert data["min_cost"] == 3


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
        return BatchStats(runs=n_runs, st=0, as_mean=0.0, ot=None, results=[])

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


def test_experiment_has_no_out_dir(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--goal", "entangle2", "--runs", "1", "--max-gen", "3",
              "--out-dir", str(tmp_path / "od")])
    assert exc.value.code == 2
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
    assert exc.value.code == 2
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


def test_goal_file_with_a_negative_optimal_cost_exits_1(tmp_path, capsys):
    path = tmp_path / "goal.json"
    save_goal(builtin("entangle2"), path)
    data = json.loads(path.read_text())
    data["optimal_cost"] = -3
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "experiment", "--goal-file", str(path), "--satcost", "5",
                         "--runs", "1", "--max-gen", "1")
    assert (code, out, err) == (1, "", "error: goal optimal_cost must be non-negative, got -3\n")


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
