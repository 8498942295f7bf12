"""Per-process recording for one crawl: page loads always, layers on demand.

:class:`Recorder` is installed in every crawl process.  It wraps
``Browser.visit_page`` to time each page load and to claim the crawl's
first page, and it follows the crawl into forked workers: an
``os.register_at_fork`` hook gives each worker fresh state, and a
wrapper around ``multiprocessing.process.BaseProcess.run`` makes the
worker write ``proc-<pid>.json`` (its page-load samples and, when
tracing, its layer table) to the benchmark's work directory when
``run`` returns.

With ``trace=True`` the recorder also monkeypatches the public entry
points of the ``repro`` modules from here (:data:`ENTRY_POINTS`), so
the program under test is not edited.  Every wrapper pushes a frame on
one per-process stack; a frame's *self* time is its duration minus the
time its nested frames and the garbage-collector pauses inside it
took.  The GC pauses come from ``gc.callbacks``, so they are a layer of
their own (``gc``) and never hide inside the layer that happened to
allocate.

With a root frame around the crawl (:meth:`Recorder.root`), the
identity

    sum(self seconds of every layer) + GC pause seconds == root wall

holds by construction unless a frame leaks; the root's own self time is
the crawl time no named layer claimed (``survey.other_s``).
"""

import gc
import json
import os
import signal
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

#: (layer, module, attribute path) of every wrapped entry point.  A
#: layer may own several entry points; re-entering the layer that is
#: already on top of the stack adds no frame.
ENTRY_POINTS = (
    ("dom.realm", "repro.dom.bindings", "DomRealm.__init__"),
    ("minijs.execute", "repro.minijs.interpreter", "Interpreter.run"),
    ("minijs.execute", "repro.minijs.codegen", "CompiledInterpreter.run"),
    ("minijs.execute", "repro.dom.bindings", "DomRealm.flush_timers"),
    ("minijs.compile", "repro.minijs.compile", "CompileCache.compile"),
    ("minijs.compile", "repro.minijs.compile", "CompileCache.prewarm"),
    ("dom.html", "repro.browser.browser", "parse_html_lenient"),
    ("dom.html", "repro.dom.html", "parse_html_lenient"),
    ("monkey", "repro.monkey.gremlins", "Gremlins.run"),
    ("blocking.hiding", "repro.browser.browser",
     "Browser._apply_element_hiding"),
    ("net.fetch", "repro.net.proxy", "InjectingProxy.fetch"),
    ("browser.instrument", "repro.browser.extension",
     "MeasuringExtension.install"),
    ("core.checkpoint.open", "repro.core.checkpoint",
     "SurveyCheckpoint.open"),
    ("core.checkpoint.append", "repro.core.checkpoint",
     "SurveyCheckpoint.append"),
    ("core.checkpoint.append", "repro.core.checkpoint",
     "SurveyCheckpoint.append_trace"),
    ("core.checkpoint.append", "repro.core.checkpoint",
     "SurveyCheckpoint.append_metrics"),
    ("core.storage.append", "repro.core.storage", "Storage.append_record"),
    ("core.storage.replace", "repro.core.storage", "Storage.replace_atomic"),
    ("core.ipc.feed", "repro.core.ipc", "FrameDecoder.feed"),
    ("core.runmetrics.merge", "repro.core.runmetrics", "merge_snapshots"),
    # Connection.poll waits through this function too, so a worker
    # idling on its task pipe lands here as well (see LayerClock.wait).
    ("survey.wait", "multiprocessing.connection", "wait"),
)

#: Name of the root frame's self time: crawl time no layer claimed.
OTHER = "survey.other"
#: The layer of ``Browser.visit_page``, which the recorder always wraps.
PAGE = "browser.page"
#: File the first ``visit_page`` call of a crawl claims.
FIRST_PAGE = "first-page"


class LayerClock:
    """Exclusive per-layer seconds, call counts and event counts."""

    def __init__(self, role):
        self.role = role
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.gc_pause_s = 0.0
        self.gc_gen2_pause_s = 0.0
        self.gc_gen2_collections = 0
        self.wall_s = 0.0
        self._stack = []
        self._gc_start = None
        self._cache_start = _cache_counters()

    # -- frames ------------------------------------------------------------

    def enter(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def leave(self, frame):
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += duration - frame[2]
        self.calls[frame[0]] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def on_top(self, name):
        return bool(self._stack) and self._stack[-1][0] == name

    @contextmanager
    def root(self):
        """Time the enclosed crawl as the :data:`OTHER` frame."""
        frame = self.enter(OTHER)
        try:
            yield
        finally:
            self.wall_s += self.leave(frame)

    def wait(self):
        """The layer a blocking multiprocessing wait belongs to."""
        return ("survey.supervisor_wait" if self.role == "parent"
                else "survey.worker_idle")

    # -- garbage collector -------------------------------------------------

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if self._gc_start is None or not self._stack:
            self._gc_start = None
            return
        pause = time.perf_counter() - self._gc_start
        self._gc_start = None
        self.gc_pause_s += pause
        if info.get("generation") == 2:
            self.gc_gen2_pause_s += pause
            self.gc_gen2_collections += 1
        self._stack[-1][2] += pause

    # -- results -----------------------------------------------------------

    def table(self):
        """This process's layer table, JSON-ready."""
        cache = _cache_counters()
        for counter in ("hits", "misses"):
            self.counts["minijs.compile." + counter] = (
                cache[counter] - self._cache_start[counter]
            )
        return {
            "role": self.role,
            "pid": os.getpid(),
            "wall_s": self.wall_s,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "gc_pause_s": self.gc_pause_s,
            "gc_gen2_pause_s": self.gc_gen2_pause_s,
            "gc_gen2_collections": self.gc_gen2_collections,
        }


def _cache_counters():
    from repro.minijs.compile import shared_cache

    return shared_cache().counters()


def _resolve(module_name, path):
    module = __import__(module_name, fromlist=["_"])
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _counting(name, clock, result, args):
    """Per-call event counts a layer reports besides its time."""
    if name == "monkey":
        clock.counts["monkey.events"] += result or 0
    elif name == "core.ipc.feed":
        clock.counts["core.ipc.frames"] += len(result)
        clock.counts["core.ipc.bytes"] += len(args[1])


def _wrap(name, function, recorder):
    def wrapper(*args, **kwargs):
        clock = recorder.clock
        layer = clock.wait() if name == "survey.wait" else name
        if clock.on_top(layer):
            return function(*args, **kwargs)
        frame = clock.enter(layer)
        try:
            result = function(*args, **kwargs)
        except BaseException as error:
            if (name == "net.fetch"
                    and getattr(error, "reason", None) == "blocked"):
                clock.counts["net.fetch.blocked"] += 1
            raise
        finally:
            clock.leave(frame)
        _counting(name, clock, result, args)
        return result

    wrapper.__wrapped__ = function
    return wrapper


class Recorder:
    """Page-load samples and, when tracing, the layer clock of a process.

    One recorder is installed per crawl process; forked workers inherit
    it and reset it (see the module docstring).
    """

    def __init__(self, work_dir, trace=False, stop_at_first_page=False):
        self.work_dir = work_dir
        self.trace = trace
        self.stop_at_first_page = stop_at_first_page
        self.crawl_pid = os.getpid()
        self.first_seen = False
        self.page_ms = []
        self.clock = LayerClock("parent") if trace else None

    def install(self):
        """Wrap ``visit_page``, worker start-up and, if tracing, the layers."""
        import multiprocessing.process

        from repro.browser.browser import Browser

        if self.trace:
            gc.callbacks.append(self._on_gc)
            for name, module_name, path in ENTRY_POINTS:
                owner, attribute = _resolve(module_name, path)
                raw = (owner.__dict__[attribute] if isinstance(owner, type)
                       else getattr(owner, attribute))
                if isinstance(raw, classmethod):
                    setattr(owner, attribute,
                            classmethod(_wrap(name, raw.__func__, self)))
                else:
                    setattr(owner, attribute, _wrap(name, raw, self))
        Browser.visit_page = self._timed(Browser.visit_page)
        os.register_at_fork(after_in_child=self._forked)
        base_run = multiprocessing.process.BaseProcess.run
        recorder = self

        def run(process):
            try:
                with recorder.root():
                    base_run(process)
            finally:
                if os.getpid() != recorder.crawl_pid:
                    recorder.dump()

        multiprocessing.process.BaseProcess.run = run

    def _timed(self, visit_page):
        recorder = self

        def timed_visit_page(browser, *args, **kwargs):
            if not recorder.first_seen:
                recorder._claim_first_page(time.monotonic())
            clock = recorder.clock
            frame = clock.enter(PAGE) if clock is not None else None
            start = time.perf_counter()
            try:
                return visit_page(browser, *args, **kwargs)
            finally:
                duration = (clock.leave(frame) if clock is not None
                            else time.perf_counter() - start)
                recorder.page_ms.append(duration * 1000.0)

        timed_visit_page.__wrapped__ = visit_page
        return timed_visit_page

    def _forked(self):
        self.page_ms = []
        if self.trace:
            self.clock = LayerClock("worker")

    def _on_gc(self, phase, info):
        self.clock.on_gc(phase, info)

    def _claim_first_page(self, start):
        self.first_seen = True
        path = os.path.join(self.work_dir, FIRST_PAGE)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        with os.fdopen(fd, "w") as handle:
            handle.write(repr(start))
        if self.stop_at_first_page:
            os.kill(self.crawl_pid, signal.SIGTERM)

    def root(self):
        """Time the enclosed crawl as the root frame, when tracing."""
        return self.clock.root() if self.clock is not None else nullcontext()

    def record(self):
        """This process's samples and layer table, JSON-ready."""
        return {"page_ms": self.page_ms,
                "layers": self.clock.table() if self.clock else None}

    def dump(self):
        path = os.path.join(self.work_dir, "proc-%d.json" % os.getpid())
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.record(), handle)

    def first_page(self):
        """``time.monotonic()`` at the start of the crawl's first page."""
        with open(os.path.join(self.work_dir, FIRST_PAGE)) as handle:
            return float(handle.read())

    def records(self):
        """This process's record, then every worker's, in pid order."""
        records = [self.record()]
        for name in sorted(os.listdir(self.work_dir)):
            if name.startswith("proc-") and name.endswith(".json"):
                with open(os.path.join(self.work_dir, name),
                          encoding="utf-8") as handle:
                    records.append(json.load(handle))
        return records


def identity_residual(table):
    """|root wall - (sum of self seconds + GC pauses)| of one process."""
    return abs(table["wall_s"] - sum(table["self_s"].values())
               - table["gc_pause_s"])
