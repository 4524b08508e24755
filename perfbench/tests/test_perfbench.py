"""Tests of the benchmark itself, on reduced workloads.

    python3 -m pytest perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from oracle_forge import engine  # noqa: E402

SMALL = {
    "synth-entangle3": workloads.Synth("entangle3", 8, 8, 20.0, max_gen=4, runs=2),
    "synth-controlled_s": workloads.Synth("controlled_s", 8, 10, 100.0, max_gen=3, runs=1),
    "synth-ghz6": workloads.Synth("ghz6", 8, 11, 20.0, max_gen=1, runs=1),
    "brute-builtins": workloads.Brute((
        ("entangle2", 3, 3), ("swap", 3, 6), ("entangle3", 3, 5), ("controlled_s", 3, None))),
}
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS", dict(SMALL))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "SETUP_PROBES_PER_PASS", 0)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    golden = tmp_path / "golden.json"
    golden.write_text("{}")
    monkeypatch.setattr(run, "GOLDEN", golden)
    return golden


def bench(capsys, *args):
    assert run.main(["--seconds", "0", *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(SMALL))
def test_reduced_run_reports_every_declared_metric(small, capsys, name, trace):
    lines, result = bench(capsys, "--workload", name, "--trace", str(trace))
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric, unit in declared.items():
        assert any(line.strip().startswith(f"{metric} = ") and line.endswith(f" {unit}")
                   for line in lines), metric
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_workload_names_match_the_declaration():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


def test_perturbed_best_circuit_is_an_error(small, capsys, monkeypatch):
    real = engine.evolve

    def perturbed(goal, gs, max_gates, params):
        result = real(goal, gs, max_gates, params)
        result.best_circuit = result.best_circuit + [gs.placement("H", 0, goal.num_qubits)]
        return result

    monkeypatch.setattr(engine, "evolve", perturbed)
    lines, result = bench(capsys, "--workload", "synth-entangle3")
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "  error_rate = 1 ratio" in lines


def test_wrong_expected_brute_cost_is_an_error(small, capsys):
    workloads.WORKLOADS["brute-builtins"] = workloads.Brute((("entangle2", 3, 4),))
    lines, result = bench(capsys, "--workload", "brute-builtins")
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("  FAILED entangle2/3: min cost 3, expected 4") for line in lines)


def test_golden_outcomes_are_compared(small, capsys):
    spec = SMALL["synth-entangle3"]
    gs, goals = workloads.setup(spec)
    real = [workloads.outcome(spec, op) for op in workloads.run_job(spec, gs, goals, 7)]
    small.write_text(json.dumps({"synth-entangle3": {"7": [real[0], [True, 1, 0, 1]]}}))
    lines, result = bench(capsys, "--workload", "synth-entangle3", "--seed", "7")
    assert "  engine.golden_checked = 2 count" in lines
    assert "  engine.golden_mismatches = 1 count" in lines
    assert result["correct"]  # a changed outcome is reported, not counted as a wrong answer


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "brute-builtins", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
