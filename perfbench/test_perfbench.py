"""Tests of the benchmark itself: tiny-order smoke runs and a non-vacuous gate.

Run with ``python3 -m pytest perfbench``.  Every workload runs at orders
p <= 16, so the whole file takes seconds.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest

import gate
import run
import spans

SEED = 7


def test_benchmark_json_names_what_the_harness_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == spans.per_layer_metrics()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_end_to_end(workload):
    result = run.run_workload(workload, SEED, 0, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(run.commands(workload, SEED))
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload):
    result = run.run_workload(workload, SEED, 0, trace=True, tiny=True)
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in spans.per_layer_metrics()]
    assert metrics["cli.main.calls"] == len(run.commands(workload, SEED))
    assert metrics["cli.bytes_out"] > 0
    assert all(metrics[f"{name}.self_s"] >= 0 for name in spans.span_names())


def test_times_scale_by_the_probe():
    # a host at half the reference speed, also stealing a third of the wall time:
    # wall times scale by half, CPU time by its own reading
    inv = run.Invocation(["census"], Path("out"), 0, 3.0, 0.6, 1.8, 30.0, "", None,
                         items=100, scale=1 / 3, cpu_scale=0.5)
    assert run.Iteration([inv]).end_to_end() == pytest.approx({
        "wall_s": 1.0, "setup_s": 0.2, "cpu_s": 0.9, "peak_rss_mb": 30.0,
        "items_per_s": 100.0,
    })


@pytest.fixture(scope="module")
def tiny_outputs():
    """Uncorrupted tiny outputs of every workload, keyed by subcommand."""
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-test-"))
    env = run.child_env()
    outputs = {}
    try:
        for workload in run.WORKLOADS:
            it = run.run_once(workload, SEED, workdir, False, True, env, gate=False)
            for inv in it.invocations:
                assert inv.status == 0, inv.stderr
                outputs[" ".join(inv.argv[:3])] = (inv.argv, inv.out.read_bytes())
        yield outputs
    finally:
        shutil.rmtree(workdir)


def _gated(argv, data, tmp_path):
    """Run the benchmark's gate on one output, as the loop does."""
    out = tmp_path / "out"
    out.write_bytes(data)
    inv = run.Invocation(argv, out, 0, 1.0, 0.1, 1.0, 1.0, "", None)
    run.apply_gate([inv], tmp_path)
    return inv


def test_gate_passes_every_correct_output(tiny_outputs, tmp_path):
    for argv, data in tiny_outputs.values():
        inv = _gated(argv, data, tmp_path)
        assert not inv.failed, inv.problems
        assert inv.items > 0


def test_gate_fails_a_corrupted_report(tiny_outputs, tmp_path):
    argv, data = tiny_outputs["verify --p 16"]
    doc = json.loads(data)
    doc["reports"][0]["checked"] += 1
    assert _gated(argv, json.dumps(doc).encode(), tmp_path).failed
    doc = json.loads(data)
    doc["reports"][-1]["outcome"] = "fail"
    assert _gated(argv, json.dumps(doc).encode(), tmp_path).failed


def test_gate_fails_a_missing_seed_echo(tmp_path):
    report = {
        "schema": "1.0.0", "command": "verify", "p": 512, "checks": ["theorem1"],
        "all_pass": True,
        "reports": [{"schema": "1.0.0", "check": "theorem1-sampled", "p": 512,
                     "outcome": "pass", "checked": 1_000_000, "seed": SEED}],
    }
    argv = ["verify", "--p", "512", "--checks", "theorem1", "--seed", str(SEED)]
    assert gate.check_verify(argv, json.dumps(report)) == ([], 1_000_000)
    report["reports"][0]["seed"] = SEED + 1
    assert gate.check_verify(argv, json.dumps(report))[0]


def test_gate_fails_a_corrupted_census(tiny_outputs, tmp_path):
    argv, data = tiny_outputs["census --p 8"]
    lines = data.decode().split("\n")
    # row 1 has equal extreme-level bits, so its pair is forced isomorphic
    assert lines[1].split(",")[2] == "yes"
    lines[1] = lines[1].replace(",yes,", ",no,")
    inv = _gated(argv, "\n".join(lines).encode(), tmp_path)
    assert inv.failed
    assert any("equal extreme bits" in p for p in inv.problems)


def test_gate_fails_a_truncated_d6(tiny_outputs, tmp_path):
    argv, data = tiny_outputs["deck --p 16"]
    truncated = data[:-2] + b"\n"
    inv = _gated(argv, truncated, tmp_path)
    assert inv.failed
    assert any("payload" in p for p in inv.problems)


def test_gate_fails_a_missing_output(tmp_path):
    inv = run.Invocation(["census", "--p", "8"], tmp_path / "absent", 0, 1.0, 0.1, 1.0, 1.0,
                         "", None)
    run.apply_gate([inv], tmp_path)
    assert inv.failed


def test_digraph6_decoder_reads_long_size_form(tmp_path):
    argv = ["generate", "--p", "64", "--kind", "tournament", "--variant", "plain",
            "--format", "d6"]
    inv = run.invoke(argv, tmp_path, 0, False, run.child_env())
    assert inv.status == 0, inv.stderr
    assert gate.check_tournaments_d6(inv.out.read_text(), 1, 64) == []
