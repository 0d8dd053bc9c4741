"""Tests of the benchmark itself, at minimal run length.

Run from the root of the checkout:  python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run        # noqa: E402
import tracing    # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.PREPARE)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=3, cwd=ROOT):
    """Run the benchmark for one round; (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert SPEC["workloads"] and sorted(w["name"] for w in SPEC["workloads"]) \
        == WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == tracing.LAYER_METRICS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    code, lines = bench(workload, 0)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    header = json.loads(lines[0])
    for key in ("python", "nproc", "cpu", "git_commit", "seed",
                "seconds_measured", "input_digest", "tail_percentile",
                "tail_samples", "ref_mean_s"):
        assert key in header
    assert header["ref_mean_s"] > 0
    assert set(header["raw_wall_time"]) == {"ops_per_s", "op_p50_ms",
                                            "op_tail_ms", "setup_s"}
    text = "\n".join(lines)
    for name in list(run.END_TO_END) + [run.FAIL_SHARE[0]]:
        assert f"{name} = " in text
        assert name in header["metrics"]
    if workload != "rulings_wide":
        assert result["failed"] == 0
        assert f"{run.FAIL_SHARE[0]} = 0.0 " in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    code, lines = bench(workload, 1)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == list(tracing.LAYER_METRICS)
    header = json.loads(lines[0])
    assert (ROOT / header["spans"]).is_file()


def test_fail_share_is_the_long_word_share_on_rulings_wide(tmp_path):
    probe = run.HostProbe()
    _fc, wl, _, _ = run.set_up("rulings_wide", 5, tmp_path, probe)
    records, _, _ = run.measure(wl, 0, probe)
    failed = [r[0].kind for r in records if r[2] != "ok"]
    assert failed == [r[0].kind for r in records
                      if r[0].kind == "long-word enumeration"]
    assert {r[2] for r in records if r[2] != "ok"} == {"RecursionError"}
    assert len(failed) == workloads.LONG_OPS_PER_ROUND
    assert run.is_correct(records)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_input_digest_follows_the_seed(workload, tmp_path):
    fc = run.import_frontcalc()
    prepare = workloads.PREPARE[workload]
    first = prepare(fc, 11, tmp_path).digest
    assert prepare(fc, 11, tmp_path).digest == first
    assert prepare(fc, 12, tmp_path).digest != first


def test_missing_traced_name_fails_loudly():
    fc = run.import_frontcalc()
    del fc.rulings.ruling_pairings
    with pytest.raises(tracing.TracingError, match="ruling_pairings"):
        tracing.Tracer().install(fc)


def test_self_time_subtracts_child_spans():
    spans = [
        ("cli.main", 0, 100, -1, 0, None, None),
        ("cobordism.reduce_diagram", 10, 40, 0, 0, None, None),
        ("diagrams.FrontDiagram", 15, 25, 1, 0, 7, None),
        ("moves.apply_rewrite", 50, 60, 0, 0, None, "InapplicableRewrite"),
    ]
    m = tracing.layer_metrics(spans, 0.0)
    assert m["cli.main.self_ms"] == 60 / 1e6
    assert m["cobordism.reduce_diagram.self_ms"] == 20 / 1e6
    assert m["diagrams.FrontDiagram.events_mean"] == 7
    assert m["moves.apply_rewrite.miss_share"] == 1.0


def test_tail_leaves_ten_samples_beyond():
    assert run.tail(list(range(100))) == (90, 89, 10)
    assert run.tail(list(range(5))) == (100, 4, 0)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = bench("filling", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
