"""Self-tests of the crawl benchmark at tiny sizes.

    python3 -m pytest -q crawlbench

Each test runs the real child processes on a few sites of the corpus;
no committed reference covers these sizes, so every run also exercises
the oracle path.
"""

import gc
import json
import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5


def tiny(name, max_sites=11, visits=1):
    # 11 sites reach the corpus's first unreachable site (rank 10), and
    # no committed reference has this size, so the oracle path runs.
    return replace(WORKLOADS[name], max_sites=max_sites, visits=visits)


@pytest.fixture
def work_root(tmp_path):
    return str(tmp_path)


def measure(workload, work_root, trace, seconds=0.0):
    bench = run.Run(workload, SEED, work_root)
    try:
        return run.measure(bench, seconds, trace, lambda line: None)
    finally:
        bench.close()


def declared():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def test_every_metric_name_and_unit_is_reported(work_root):
    end_to_end, per_layer = declared()
    correct, attempted, failed, metrics = measure(
        tiny("crawl"), work_root, trace=False)
    assert correct and failed == 0 and attempted > 0
    assert {k: v["unit"] for k, v in metrics.items()} == end_to_end
    assert all(v["value"] > 0 for v in metrics.values())
    correct, _, _, metrics = measure(tiny("crawl"), work_root, trace=True)
    assert correct
    assert {k: v["unit"] for k, v in metrics.items()} == per_layer


def test_digest_mismatch_fails_the_run(work_root, monkeypatch):
    child = run.Run.child

    def wrong_oracle(self, mode, **kwargs):
        out = child(self, mode, **kwargs)
        if mode == "oracle":
            out["survey"] = "0" * 64
        return out

    monkeypatch.setattr(run.Run, "child", wrong_oracle)
    correct, attempted, failed, metrics = measure(
        tiny("crawl"), work_root, trace=False)
    assert not correct
    assert failed == attempted > 0
    assert metrics["failed_site_ratio"]["value"] == 1.0


def test_a_failing_client_stops_the_other(work_root, monkeypatch):
    calls = []

    def flaky_child(self, mode, **kwargs):
        calls.append(mode)
        if len(calls) == 4:
            raise run.ChildFailed("crawl child exited 1")
        if self.aborted:
            raise run.ChildFailed("run aborted before %s" % mode)
        return {"setup_s": 0.5, "pages": 1, "page_ms": [1.0],
                "crawl_s": 1.0, "survey": "0" * 64, "pairs": 1,
                "failed_pairs": 0}

    monkeypatch.setattr(run.Run, "child", flaky_child)
    workload = tiny("crawl")
    assert workload.clients == 2
    bench = run.Run(workload, SEED, work_root)
    try:
        with pytest.raises(run.ChildFailed):
            run.measure(bench, 3600.0, False, lambda line: None)
    finally:
        bench.close()
    assert bench.aborted


def test_layer_sum_identity_holds_in_a_traced_crawl(work_root):
    correct, _, _, metrics = measure(
        tiny("crawl-resume", max_sites=6), work_root, trace=True)
    assert correct
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["trace.identity_residual_s"] < 1e-6
    assert value["survey.attributed_share"] >= 0.9
    assert value["core.checkpoint.records"] > 0
    assert value["core.ipc.frames"] > 0
    assert value["survey.supervisor_wait_s"] > 0


def test_low_attribution_or_a_broken_identity_fails_the_run():
    good = {"trace.identity_residual_s": 0.0, "survey.crawl_wall_s": 10.0,
            "survey.attributed_share": 0.95}
    assert run.trace_problems(good) == []
    low = dict(good, **{"survey.attributed_share": 0.85})
    assert [p.split()[0] for p in run.trace_problems(low)] == ["named"]
    leaked = dict(good, **{"trace.identity_residual_s": 0.5})
    assert [p.split()[0] for p in run.trace_problems(leaked)] == ["layer-sum"]


def test_gc_pause_leaves_the_enclosing_layer():
    clock = layers.LayerClock("parent")
    gc.callbacks.append(clock.on_gc)
    try:
        with clock.root():
            frame = clock.enter("dom.realm")
            junk = [[i] for i in range(10000)]
            gc.collect()
            del junk
            clock.leave(frame)
    finally:
        gc.callbacks.remove(clock.on_gc)
    table = clock.table()
    assert table["gc_gen2_collections"] >= 1
    assert table["gc_pause_s"] > 0
    assert layers.identity_residual(table) < 1e-9


def test_resume_counts_only_pages_after_the_resume(work_root):
    resume = run.Run(tiny("crawl-resume", max_sites=6), SEED, work_root)
    serial = run.Run(tiny("crawl", max_sites=6), SEED, work_root)
    try:
        prep = resume.child("prep")
        resumed = resume.child(
            "crawl", run_dir=os.path.join(prep["work_dir"], "run"))
        full = serial.child("crawl")
    finally:
        resume.close()
        serial.close()
    assert resumed["survey"] == full["survey"]
    assert 0 < prep["pages"] < full["pages"]
    assert resumed["pages"] == full["pages"] - prep["pages"]
