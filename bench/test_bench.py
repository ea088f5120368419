"""The benchmark's own tests: tiny runs of every workload through the same
code path as a measured run.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tracer_mod

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))


def _units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.fixture(scope="module", params=WORKLOADS)
def tiny_runs(request):
    """(untraced, traced) results of a tiny run of one workload."""
    return tuple(run.run_workload(request.param, 3, 0, trace, scale="tiny")
                 for trace in (False, True))


def test_untraced_prints_every_end_to_end_metric(tiny_runs):
    (line, record), _ = tiny_runs
    assert line["correct"], record["failures"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == _units("end_to_end")
    for name in ("setup_s", "train_tokens_per_s", "eval_docs_per_s",
                 "predict_docs_per_s", "peak_rss_mb", "final_loss"):
        assert line["metrics"][name]["value"] > 0, name


def test_traced_prints_every_per_layer_metric(tiny_runs):
    _, (line, record) = tiny_runs
    assert line["correct"], record["failures"]
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == _units("per_layer")
    assert line["metrics"]["lstm.calls"]["value"] + \
        line["metrics"]["conv.calls"]["value"] > 0


def test_traced_and_untraced_agree(tiny_runs):
    (_, plain), (_, traced) = tiny_runs
    outputs = {(c["final_loss"], c["test_err_pct"])
               for record in (plain, traced) for c in record["cycles"]}
    assert len(outputs) == 1
    assert any(c["traced"] for c in traced["cycles"])
    assert not any(c["traced"] for c in plain["cycles"])


def test_main_prints_result_line_last(capsys):
    assert run.main(["--workload", "lstm_chop", "--seed", "1", "--seconds", "0",
                     "--scale", "tiny"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    saved = json.loads(
        (run.ROOT / ".bench_results" / "lstm_chop-seed1-trace0.json").read_text())
    for key in ("nproc", "python", "numpy", "blas", "blas_version",
                "blas_threads", "workers", "commit", "seed"):
        assert key in saved["machine"]


def test_fails_without_sources(tmp_path):
    """Only BENCHMARK.json and the benchmark directory: exit non-zero and
    print no result line."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lstm_chop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_wrong_outputs_fail_the_checks():
    from workloads import make_plan

    work = run.ROOT / ".bench_tmp" / "test-checks"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = make_plan("lstm_chop", work, 1, "tiny")
        plan.test_labels = [("neg" if t == "pos" else "pos") for t in plan.test_labels]
        cycle = run.run_cycle(plan)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert any("predict error rate" in f for f in cycle.failures)


def test_every_seed_gives_the_same_input_size(tmp_path):
    from workloads import EVAL_REPEATS, make_plan

    sizes = []
    for seed in (1, 2):
        work = tmp_path / str(seed)
        work.mkdir()
        plan = make_plan("seqcnn_30k", work, seed, "tiny")
        sizes.append([(step.role, step.size) for step in plan.steps])
    assert sizes[0] == sizes[1]
    assert [role for role, _ in sizes[0]].count("eval") == EVAL_REPEATS


def test_tracer_self_time_restore_and_folding():
    class Owner:
        @staticmethod
        def outer(n):
            return Owner.inner(n) + Owner.inner(n)

        @staticmethod
        def inner(n):
            return sum(range(n))

    original_outer, original_inner = Owner.outer, Owner.inner
    t = tracer_mod.Tracer()
    t.wrap(Owner, "outer", "a", lambda a, r: {"a.n": a["n"]})
    t.wrap(Owner, "inner", "b")
    with t.span("root"):
        Owner.outer(10000)
    assert t.restore() == []
    assert Owner.outer is original_outer and Owner.inner is original_inner
    self_s, incl_s, calls, counts = t.layer_totals()
    assert calls == {"root": 1, "a": 1, "b": 2}
    assert counts["a.n"] == 10000
    assert self_s["a"] == pytest.approx(incl_s["a"] - incl_s["b"])
    # counting after a span ends is charged to no layer
    assert 0 < self_s["root"] <= incl_s["root"] - incl_s["a"]

    t = tracer_mod.Tracer()
    t.wrap(Owner, "outer", "same", lambda a, r: {"n": 1})
    t.wrap(Owner, "inner", "same", lambda a, r: {"n": 1})
    Owner.outer(10)
    t.restore()
    _, _, calls, counts = t.layer_totals()
    assert calls["same"] == 1 and counts["n"] == 1
