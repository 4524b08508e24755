import json
from pathlib import Path

import numpy as np
import pytest

from oracle_forge.cli import main
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
    assert lines[0] == ("m,n,k,structured_count,naive_count,predicted_speedup,"
                        "wall_ns_structured,wall_ns_naive")
    fields = lines[1].split(",")
    assert fields[:5] == ["8", "2", "8", "32768", "2097152"]
    assert fields[5] == "True"


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
def test_gate_budget_below_one_exits_1(tmp_path, capsys, command, g):
    extra = ("--runs", "2") if command == "experiment" else ()
    code, _, err = run(capsys, command, "--goal", "entangle2", "--g", g, *extra,
                       "--out-dir", str(tmp_path))
    assert code == 1
    assert "gate budget must be at least 1" in err
    assert list(tmp_path.iterdir()) == []


def test_experiment_sweep_keeps_every_other_setting(monkeypatch, capsys):
    from dataclasses import replace

    from oracle_forge import cli
    from oracle_forge.engine import BatchStats

    seen = []
    resolve = cli._resolve_params

    def custom_params(*args):
        params, g = resolve(*args)
        return replace(params, delta_theta=0.07, mutation_prob=0.2, restart_after=3), g

    def fake_batch(goal, gs, g, params, n_runs):
        seen.append(params)
        return BatchStats(runs=n_runs, st=0, as_mean=0.0, ot=None, results=[])

    monkeypatch.setattr(cli, "_resolve_params", custom_params)
    monkeypatch.setattr(cli, "run_batch", fake_batch)
    code, _, _ = run(capsys, "experiment", "--goal", "entangle2", "--runs", "1",
                     "--punish-sweep", "1", "5")
    assert code == 0
    assert [p.fitness.punish for p in seen] == [1.0, 5.0]
    for p in seen:
        assert (p.delta_theta, p.mutation_prob, p.restart_after) == (0.07, 0.2, 3)


def test_brute_has_no_config_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["brute", "--goal", "entangle2", "--max-gates", "1", "--config", "x.json"])
    assert exc.value.code == 2
    capsys.readouterr()
