"""The crawl benchmark: one workload, one seed, one JSON line.

    python3 crawlbench/run.py --workload crawl --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the crawler is imported from
``src/``.  Every sample is a fresh process (``crawl.py``).  Each of
the workload's closed-loop clients runs, until ``--seconds`` are up,
two set-up probes and then a timed crawl, so that set-up samples and
crawls are spread through the run.  The last line of standard output
is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
no layer wrappers:

* ``pages_per_s``: ``Browser.visit_page`` calls divided by crawl wall
  time (first page to end of ``run_survey``), both summed over every
  crawl of the run, so it is one crawl's rate whatever the number of
  clients; on ``crawl-resume`` only the pages crawled after the resume;
* ``page_load_ms_p50`` / ``page_load_ms_p95``: one ``visit_page``
  call's wall time, pooled over the run's crawls (the sample count is
  printed);
* ``setup_s``: median over the run's probes and crawls (at least
  :data:`MIN_SETUPS`) of process start to the first page;
* ``peak_rss_mb``: median over the run's crawls of the crawl process's
  peak RSS (or its largest worker's, if larger);
* ``failed_site_ratio``: failed (condition, domain) pairs over pairs
  attempted; a crawl whose digests do not match counts every pair.

Each crawl is checked against the committed reference digests for the
seed (``references.json``) or, for a seed with none committed, against
an oracle crawl computed first.  ``attempted`` counts the pairs the
run's crawls attempted and ``failed`` the pairs of crawls whose check
failed; the corpus's own unreachable sites are expected outcomes of
the reference, not failures of the run.

With ``--trace 1`` the run alternates untraced and traced crawls for
``--seconds`` and reports the traced crawls' mean per-layer table (see
``layers.py``), the layer-sum identity and the tracing overhead
(untraced over traced ``pages_per_s``).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CRAWL = os.path.join(HERE, "crawl.py")
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS, reference, restrict  # noqa: E402

#: page samples a run needs so that ten or more lie beyond the p95
MIN_PAGES = 200
#: set-up samples whose median is ``setup_s``
MIN_SETUPS = 25
#: set-up probes each client runs before each timed crawl, so that the
#: set-up samples are spread through the run
PROBES_PER_CRAWL = 2
#: share of crawl wall time a traced run must attribute to named
#: layers and GC
MIN_ATTRIBUTED = 0.9
#: a run must end within 180 s; no child may outlive this budget
RUN_BUDGET_S = 170.0

END_TO_END = {
    "pages_per_s": "1/s",
    "page_load_ms_p50": "ms",
    "page_load_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_site_ratio": "ratio",
}

#: per-layer metric -> (unit, layer table key, kind)
PER_LAYER = {
    "dom.realm.self_s": ("s", "dom.realm", "self"),
    "dom.realm.calls": ("count", "dom.realm", "calls"),
    "gc.pause_s": ("s", "gc_pause_s", "gc"),
    "gc.gen2_pause_s": ("s", "gc_gen2_pause_s", "gc"),
    "gc.gen2_collections": ("count", "gc_gen2_collections", "gc"),
    "minijs.execute.self_s": ("s", "minijs.execute", "self"),
    "minijs.execute.calls": ("count", "minijs.execute", "calls"),
    "minijs.compile.self_s": ("s", "minijs.compile", "self"),
    "minijs.compile.misses": ("count", "minijs.compile.misses", "counts"),
    "minijs.compile.hit_ratio": ("ratio", None, "derived"),
    "dom.html.self_s": ("s", "dom.html", "self"),
    "monkey.self_s": ("s", "monkey", "self"),
    "monkey.events": ("count", "monkey.events", "counts"),
    "blocking.hiding.self_s": ("s", "blocking.hiding", "self"),
    "net.fetch.self_s": ("s", "net.fetch", "self"),
    "net.fetch.requests": ("count", "net.fetch", "calls"),
    "net.fetch.blocked": ("count", "net.fetch.blocked", "counts"),
    "browser.instrument.self_s": ("s", "browser.instrument", "self"),
    "browser.page.self_s": ("s", "browser.page", "self"),
    "webidl.registry_s": ("s", "registry_s", "process"),
    "webgen.build_s": ("s", "build_s", "process"),
    "import_s": ("s", "import_s", "process"),
    "core.checkpoint.open_s": ("s", "core.checkpoint.open", "self"),
    "core.checkpoint.append_s": ("s", "core.checkpoint.append", "self"),
    "core.checkpoint.records": ("count", "core.checkpoint.append", "calls"),
    "core.checkpoint.bytes": ("B", "checkpoint_bytes", "process"),
    "core.storage.append_s": ("s", "core.storage.append", "self"),
    "core.storage.replace_s": ("s", "core.storage.replace", "self"),
    "core.storage.replace_calls": ("count", "core.storage.replace", "calls"),
    "core.ipc.feed_s": ("s", "core.ipc.feed", "self"),
    "core.ipc.frames": ("count", "core.ipc.frames", "counts"),
    "core.ipc.bytes": ("B", "core.ipc.bytes", "counts"),
    "core.runmetrics.merge_s": ("s", "core.runmetrics.merge", "self"),
    "survey.supervisor_wait_s": ("s", "survey.supervisor_wait", "self"),
    "survey.worker_idle_s": ("s", "survey.worker_idle", "self"),
    "survey.other_s": ("s", "survey.other", "self"),
    "survey.crawl_wall_s": ("s", None, "derived"),
    "survey.attributed_share": ("ratio", None, "derived"),
    "trace.identity_residual_s": ("s", None, "derived"),
    "trace.overhead_ratio": ("ratio", None, "derived"),
}


class ChildFailed(RuntimeError):
    pass


class Run:
    """One benchmark invocation's work dir, deadline and child launcher."""

    def __init__(self, workload, seed, work_root):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work_root = work_root
        self.work = tempfile.mkdtemp(prefix="run-", dir=work_root)
        self.count = 0
        self.lock = threading.Lock()
        self.live = set()
        self.aborted = False
        # A fixed hash seed keeps set and dict layouts, and with them
        # allocation and GC timing, the same in every process (hash
        # seeds 0, 1 and 2 gave the same GC and call counts).  Bytecode
        # is cached under the work root whatever PYTHONDONTWRITEBYTECODE
        # says, so set-up time never includes compiling the sources.
        self.env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=self.work,
                        PYTHONPYCACHEPREFIX=os.path.join(work_root,
                                                         "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def child(self, mode, trace=False, run_dir=None):
        """Run ``crawl.py`` in a fresh process; returns its result."""
        with self.lock:
            self.count += 1
            work_dir = os.path.join(self.work, "%s-%d" % (mode, self.count))
        os.makedirs(work_dir)
        if run_dir is not None:
            shutil.copytree(run_dir, os.path.join(work_dir, "run"))
        command = [sys.executable, CRAWL,
                   "--workload", self.workload.name,
                   "--max-sites", str(self.workload.max_sites),
                   "--visits", str(self.workload.visits),
                   "--seed", str(self.seed), "--mode", mode,
                   "--work-dir", work_dir]
        if trace:
            command.append("--trace")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("run budget exhausted before %s" % mode)
        with self.lock:
            if self.aborted:
                raise ChildFailed("run aborted before %s" % mode)
            t0 = time.monotonic()
            # Its own session, so a kill reaches the crawl's workers too.
            child = subprocess.Popen(command + ["--t0", repr(t0)],
                                     env=self.env,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE,
                                     start_new_session=True)
            self.live.add(child)
        try:
            _, stderr = child.communicate(timeout=remaining)
        except BaseException:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise
        finally:
            with self.lock:
                self.live.discard(child)
            child.stderr.close()
        if child.returncode != 0:
            raise ChildFailed("%s child exited %d:\n%s" % (
                mode, child.returncode,
                stderr.decode("utf-8", "replace")[-2000:]))
        with open(os.path.join(work_dir, "result.json"),
                  encoding="utf-8") as handle:
            out = json.load(handle)
        if mode != "prep":
            shutil.rmtree(work_dir)
        out["work_dir"] = work_dir
        return out

    def oracle(self, log):
        """Reference digests for a seed with none committed.

        Computed once per corpus size and seed, then kept in the work
        root for later runs of the same checkout.
        """
        path = os.path.join(self.work_root, "oracle-%s-%d.json"
                            % (self.workload.key, self.seed))
        if not os.path.exists(path):
            log("no committed reference for seed %d: computing an oracle"
                % self.seed)
            out = self.child("oracle")
            with open(path + ".tmp", "w", encoding="utf-8") as handle:
                json.dump(out, handle)
            os.replace(path + ".tmp", path)
        with open(path, encoding="utf-8") as handle:
            return restrict(self.workload, json.load(handle))

    def abort(self):
        """Start no more children and kill the running ones."""
        with self.lock:
            self.aborted = True
            for child in self.live:
                try:
                    os.killpg(child.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # exited, not yet reaped by its client

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def check(crawl, ref):
    """Names of the digests of one crawl that differ from the reference."""
    wrong = [k for k in ref if crawl.get(k) != ref[k]]
    if "trace" in ref and not crawl.get("fsck_ok"):
        wrong.append("fsck")
    return wrong


def p95(samples):
    return statistics.quantiles(samples, n=20)[18]


def end_to_end(crawls, setups, wrong):
    samples = [ms for crawl in crawls for ms in crawl["page_ms"]]
    pairs = sum(c["pairs"] for c in crawls)
    failed = sum(c["failed_pairs"] for c in crawls)
    return {
        "pages_per_s": rate(crawls),
        "page_load_ms_p50": statistics.median(samples),
        "page_load_ms_p95": p95(samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in crawls),
        "failed_site_ratio": 1.0 if wrong else failed / pairs,
    }


def layer_table(traced):
    """The per-layer metrics of one traced crawl, summed over processes."""
    tables = traced["layers"]

    def total(section, key):
        return sum(t[section].get(key, 0) for t in tables)

    metrics = {}
    for name, (_, key, kind) in PER_LAYER.items():
        if kind == "self":
            metrics[name] = total("self_s", key)
        elif kind == "calls":
            metrics[name] = total("calls", key)
        elif kind == "counts":
            metrics[name] = total("counts", key)
        elif kind == "gc":
            metrics[name] = sum(t[key] for t in tables)
        elif kind == "process":
            metrics[name] = traced.get(key, 0)
    hits = total("counts", "minijs.compile.hits")
    lookups = hits + metrics["minijs.compile.misses"]
    metrics["minijs.compile.hit_ratio"] = hits / lookups if lookups else 0.0
    wall = sum(t["wall_s"] for t in tables)
    metrics["survey.crawl_wall_s"] = tables[0]["wall_s"]
    metrics["survey.attributed_share"] = 1.0 - metrics["survey.other_s"] / wall
    metrics["trace.identity_residual_s"] = max(
        layers.identity_residual(t) for t in tables)
    return metrics


def rate(crawls):
    return sum(c["pages"] for c in crawls) / sum(c["crawl_s"] for c in crawls)


def per_layer(traced, untraced):
    """Mean per-layer table over the traced crawls, and the overhead."""
    tables = [layer_table(crawl) for crawl in traced]
    metrics = {name: statistics.fmean(t[name] for t in tables)
               for name in tables[0]}
    metrics["trace.identity_residual_s"] = max(
        t["trace.identity_residual_s"] for t in tables)
    metrics["trace.overhead_ratio"] = rate(untraced) / rate(traced)
    return metrics


def trace_problems(metrics):
    """Why a traced run's layer table fails its checks, if it does."""
    problems = []
    residual = metrics["trace.identity_residual_s"]
    if residual > 1e-6 * metrics["survey.crawl_wall_s"]:
        problems.append("layer-sum identity broken: residual %.9f s"
                        % residual)
    if metrics["survey.attributed_share"] < MIN_ATTRIBUTED:
        problems.append("named layers and GC cover only %.1f%% of crawl "
                        "time" % (100 * metrics["survey.attributed_share"]))
    return problems


def measure(run, seconds, trace, log):
    """Every crawl of one run; returns (correct, attempted, failed, metrics)."""
    workload = run.workload
    ref = reference(workload, run.seed) or run.oracle(log)
    # Untimed warm-up (the prep crawl is one): byte-compiles the
    # sources once, so no timed process pays for it.
    run_dir = None
    if workload.resume:
        run_dir = os.path.join(run.child("prep")["work_dir"], "run")
    else:
        run.child("probe")

    crawls, setups = [], []
    stop = time.monotonic() + seconds
    if trace:
        # Untraced and traced crawls alternate, so the tracing overhead
        # compares crawls made under the same host conditions.
        while True:
            crawls.append(run.child("crawl", run_dir=run_dir))
            crawls.append(run.child("crawl", trace=True, run_dir=run_dir))
            if time.monotonic() >= stop:
                break
    else:
        def client():
            # A closed loop: set-up probes, then a timed crawl, again
            # until the time is up and the run holds enough pages.
            while True:
                for _ in range(PROBES_PER_CRAWL):
                    setups.append(
                        run.child("probe", run_dir=run_dir)["setup_s"])
                crawls.append(run.child("crawl", run_dir=run_dir))
                setups.append(crawls[-1]["setup_s"])
                pages = sum(c["pages"] for c in crawls)
                if time.monotonic() >= stop and pages >= MIN_PAGES:
                    return

        with ThreadPoolExecutor(workload.clients) as pool:
            futures = [pool.submit(client) for _ in range(workload.clients)]
            try:
                done, _ = wait(futures, return_when=FIRST_EXCEPTION)
                for future in done:
                    future.result()
                for future in futures:
                    future.result()
            except BaseException:
                # One client's failure, or SIGTERM, stops the others.
                run.abort()
                raise
        while len(setups) < MIN_SETUPS:
            setups.append(run.child("probe", run_dir=run_dir)["setup_s"])

    wrong = {}
    for index, crawl in enumerate(crawls):
        log("crawl %d: %d pages in %.3f s, p50 %.3f ms, p95 %.3f ms, "
            "set-up %.3f s" % (index, crawl["pages"], crawl["crawl_s"],
                               statistics.median(crawl["page_ms"]),
                               p95(crawl["page_ms"]), crawl["setup_s"]))
        mismatched = check(crawl, ref)
        if mismatched:
            wrong[index] = mismatched
            log("crawl %d: digests differ from the reference: %s"
                % (index, ", ".join(mismatched)))
    attempted = sum(c["pairs"] for c in crawls)
    failed = sum(crawls[i]["pairs"] for i in wrong)
    correct = not wrong
    if trace:
        metrics = per_layer(crawls[1::2], crawls[0::2])
        for problem in trace_problems(metrics):
            log(problem)
            correct = False
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        metrics = end_to_end(crawls, setups, wrong)
        units = END_TO_END
        samples = sum(len(c["page_ms"]) for c in crawls)
        log("%d crawls, %d page samples (%d beyond p95), %d set-up samples"
            % (len(crawls), samples, samples // 20, len(setups)))
    report = {name: {"value": value, "unit": units[name]}
              for name, value in metrics.items()}
    return correct, attempted, failed, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("crawlbench: no crawler sources under %s\n" % SRC)
        return 2
    work_root = os.path.join(ROOT, ".crawlbench-work")
    os.makedirs(work_root, exist_ok=True)

    def log(line):
        print("# " + line, flush=True)

    # SIGTERM unwinds like Ctrl-C, so the running child is killed and
    # waited for before the work dir is removed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    run = Run(WORKLOADS[args.workload], args.seed, work_root)
    try:
        correct, attempted, failed, metrics = measure(
            run, args.seconds, bool(args.trace), log)
    except (ChildFailed, subprocess.TimeoutExpired) as error:
        sys.stderr.write("crawlbench: %s\n" % error)
        return 1
    finally:
        run.close()
    for name, metric in metrics.items():
        log("%-28s %14.6f %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
