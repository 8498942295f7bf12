"""One crawl of one workload in a fresh process.

    python3 crawlbench/crawl.py --workload crawl --max-sites 40 \
        --visits 2 --seed 0 --mode crawl --work-dir DIR \
        --t0 <time.monotonic() at launch> [--trace]

``run.py`` launches this once per sample so every crawl starts from a
cold interpreter: set-up time is measured from process start, and no
crawl inherits another's heap.  Modes:

* ``crawl``: set up, crawl, and write the crawl's figures and digests
  to ``DIR/result.json`` (``run.py`` checks them);
* ``probe``: set up and stop at the first page (the crawl is asked to
  drain with SIGTERM, the way an operator stops it), for ``setup_s``;
* ``prep``: write the half-crawled run dir a ``crawl-resume`` crawl
  resumes from (``DIR/run``), outside any timed region;
* ``oracle``: compute reference digests for a seed that has none
  committed, from a serial, checkpointed, traced crawl with the
  accelerated instrumentation.

A :class:`layers.Recorder` times every ``Browser.visit_page`` call of
the crawl, its forked workers' included, and marks the first one; with
``--trace`` it also keeps the per-layer table.
"""

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
from workloads import WEB_SEED, WEB_SITES, WORKLOADS  # noqa: E402


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux.  RUSAGE_CHILDREN is the largest
    # waited-for worker.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _shard_bytes(run_dir):
    return sum(os.path.getsize(os.path.join(run_dir, name))
               for name in os.listdir(run_dir) if name.endswith(".jsonl"))


def _run_digests(run_dir):
    from repro.core.checkpoint import fsck_report
    from repro.core.statusreport import run_metrics_digest
    from repro.core.tracereport import load_trace_records
    from repro.obs import trace_digest

    return {
        "trace": trace_digest(load_trace_records(run_dir)),
        "metrics": run_metrics_digest(run_dir),
        "fsck_ok": bool(fsck_report(run_dir)["ok"]),
    }


def _pair_counts(result):
    pairs = len(result.domains) * len(result.conditions)
    failed = sum(len(result.failed_domains(c)) for c in result.conditions)
    return pairs, failed


def _prepare(workload, seed, registry, web, run_dir):
    """Checkpoint the first half of the pairs, then crash."""
    from repro.core.checkpoint import SurveyCheckpoint
    from repro.core.survey import run_survey

    append = SurveyCheckpoint.append
    # Half of the (condition, domain) pairs of a two-condition crawl.
    stop_after = workload.max_sites
    appended = []

    def append_then_crash(checkpoint, *args, **kwargs):
        append(checkpoint, *args, **kwargs)
        appended.append(1)
        if len(appended) >= stop_after:
            raise KeyboardInterrupt("simulated crash")

    SurveyCheckpoint.append = append_then_crash
    config = workload.survey_config(seed)
    config.workers = 1
    try:
        run_survey(web, registry, config, run_dir=run_dir)
    except KeyboardInterrupt:
        pass
    finally:
        SurveyCheckpoint.append = append
    if len(appended) != stop_after:
        raise RuntimeError("prepared %d pairs, wanted %d"
                           % (len(appended), stop_after))


def _oracle(workload, seed, registry, web, work_dir):
    """Digests of the serial, checkpointed, traced accelerated crawl."""
    from repro.core.persistence import survey_digest
    from repro.core.survey import run_survey

    config = workload.survey_config(seed)
    config.workers = 1
    config.start_method = None
    config.trace = True
    config.browser.instrumentation_mode = "accelerated"
    run_dir = os.path.join(work_dir, "oracle-run")
    result = run_survey(web, registry, config, run_dir=run_dir)
    out = _run_digests(run_dir)
    del out["fsck_ok"]
    pairs, failed = _pair_counts(result)
    out.update(survey=survey_digest(result), pairs=pairs,
               failed_pairs=failed)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--max-sites", type=int, required=True)
    parser.add_argument("--visits", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("crawl", "probe", "prep", "oracle"))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = replace(WORKLOADS[args.workload], max_sites=args.max_sites,
                       visits=args.visits)
    work_dir = args.work_dir

    from repro.core.persistence import survey_digest
    from repro.core.survey import SurveyInterrupted, run_survey
    from repro.webgen.sitegen import build_web
    from repro.webidl.registry import default_registry

    out = {"import_s": time.monotonic() - args.t0}
    started = time.monotonic()
    registry = default_registry()
    out["registry_s"] = time.monotonic() - started
    started = time.monotonic()
    web = build_web(registry, n_sites=WEB_SITES, seed=WEB_SEED)
    out["build_s"] = time.monotonic() - started

    run_dir = os.path.join(work_dir, "run")
    if args.mode == "oracle":
        out.update(_oracle(workload, args.seed, registry, web, work_dir))
        return _write(work_dir, out)
    recorder = layers.Recorder(work_dir, trace=args.trace,
                               stop_at_first_page=args.mode == "probe")
    recorder.install()
    if args.mode == "prep":
        _prepare(workload, args.seed, registry, web, run_dir)
        out["pages"] = len(recorder.page_ms)
        return _write(work_dir, out)

    shard_bytes = _shard_bytes(run_dir) if workload.resume else 0
    try:
        with recorder.root():
            result = run_survey(
                web, registry, workload.survey_config(args.seed),
                run_dir=run_dir if workload.resume else None,
                resume=workload.resume,
            )
    except SurveyInterrupted:
        if args.mode != "probe":
            raise
        out["setup_s"] = recorder.first_page() - args.t0
        return _write(work_dir, out)
    finished = time.monotonic()
    first_page = recorder.first_page()
    records = recorder.records()
    samples = [ms for record in records for ms in record["page_ms"]]
    pairs, failed = _pair_counts(result)
    out.update(
        setup_s=first_page - args.t0,
        crawl_s=finished - first_page,
        pages=len(samples),
        page_ms=samples,
        peak_rss_mb=_peak_rss_mb(),
        pairs=pairs,
        failed_pairs=failed,
        survey=survey_digest(result),
    )
    if workload.resume:
        out.update(_run_digests(run_dir))
        out["checkpoint_bytes"] = _shard_bytes(run_dir) - shard_bytes
    if args.trace:
        out["layers"] = [record["layers"] for record in records]
    return _write(work_dir, out)


def _write(work_dir, out):
    with open(os.path.join(work_dir, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
