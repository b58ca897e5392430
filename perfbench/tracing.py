"""Span tracer for the benchmark's traced run.

:func:`install` wraps the public calls behind each layer from outside the
program.  Every wrapped call records one span -- name, start, end, parent
span and trace id -- into flat in-memory arrays; nothing is written until
the run ends.  :func:`layer_metrics` then derives each layer's calls,
inclusive time and self time (a span's duration minus its child spans)
from the spans and the counters recorded beside them.

Names are patched where they are looked up: a function imported into
another module (``parse_html`` in ``repro.web.browser``) is replaced in
every ``repro`` module that holds it, and ``Element.select`` reaches the
wrapper through the module-level ``select`` it calls.  Forked children
(the serving layer's vet workers) stop recording, so their work shows up
only as the parent's ``WorkerPool.execute`` span.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

#: ``after(tracer, args, result)`` runs once the wrapped call has returned,
#: outside its span, to record counters beside it.
After = Callable[["Tracer", tuple, Any], None]

_now = time.perf_counter_ns


class Tracer:
    """Spans in flat arrays plus named counters and tracked instances."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: Name ids whose spans start a trace of their own (pipeline stages).
        self._roots: set[int] = set()
        self.name = array("i")
        self.parent = array("i")
        self.trace = array("i")
        #: 1 when a span of the same name is already open (recursion or a
        #: nested exchange); such spans are left out of inclusive time.
        self.nested = array("b")
        self.start = array("q")
        self.end = array("q")
        self.raised: list[int] = []
        self._depth: list[int] = []
        self._stack: list[int] = []
        self.trace_labels: dict[int, str] = {}
        self.counters: dict[str, float] = {}
        self.instances: dict[str, list] = {}
        self.active = True
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.active = False

    # -- recording -----------------------------------------------------------

    def intern(self, name: str, root: bool = False) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.raised.append(0)
            self._depth.append(0)
        if root:
            self._roots.add(nid)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        stack = self._stack
        parent = stack[-1] if stack else -1
        if parent >= 0 and nid not in self._roots:
            trace = self.trace[parent]
        else:
            trace = len(self.trace_labels) + 1
            self.trace_labels[trace] = self.names[nid]
        depth = self._depth[nid]
        self._depth[nid] = depth + 1
        self.name.append(nid)
        self.parent.append(parent)
        self.trace.append(trace)
        self.nested.append(1 if depth else 0)
        self.end.append(0)
        stack.append(index)
        self.start.append(_now())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _now()
        self._stack.pop()
        self._depth[self.name[index]] -= 1

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, after: After | None = None, root: bool = False) -> Callable:
        nid = self.intern(name, root)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[nid] += 1
                raise
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def wrap_iterator(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: one span per item it produces."""
        nid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while tracer.active:
                index = tracer.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                yield item
            yield from inner

        return traced

    def patch_method(self, cls: type, attr: str, name: str, after: After | None = None, root: bool = False) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], after, root))

    def patch_function(self, original: Callable, name: str, after: After | None = None) -> None:
        """Replace ``original`` in every loaded ``repro`` module that holds it."""
        wrapper = self.wrap(name, original, after)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def track(self, cls: type, key: str) -> None:
        """Keep every instance of ``cls`` built from now on, for end-of-run counters."""
        original = cls.__dict__["__init__"]
        kept = self.instances.setdefault(key, [])

        @functools.wraps(original)
        def init(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            kept.append(instance)

        cls.__init__ = init

    # -- reading ---------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, raised."""
        count = len(self.start)
        children = [0] * count
        for index in range(count):
            parent = self.parent[index]
            if parent >= 0:
                children[parent] += self.end[index] - self.start[index]
        totals = [[0, 0, 0] for _ in self.names]
        for index in range(count):
            duration = self.end[index] - self.start[index]
            entry = totals[self.name[index]]
            entry[0] += 1
            entry[2] += duration - children[index]
            if not self.nested[index]:
                entry[1] += duration
        return {
            name: {"calls": calls, "s": inclusive / 1e9, "self_s": own / 1e9, "raised": self.raised[nid]}
            for nid, (name, (calls, inclusive, own)) in enumerate(zip(self.names, totals))
        }

    def write(self, path: Path) -> int:
        """Write the spans as TSV, times in ns from the first span; returns the count.

        Header lines name the pipeline-stage traces; every other trace id is
        the sequence number of a top-level call (a request on ``gate``).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            out.write("# span\tparent\ttrace\tname\tstart_ns\tend_ns\n")
            for trace, label in self.trace_labels.items():
                if self._ids[label] in self._roots:
                    out.write(f"# trace {trace} {label}\n")
            for index in range(len(self.start)):
                out.write(
                    f"{index}\t{self.parent[index]}\t{self.trace[index]}\t{names[self.name[index]]}\t"
                    f"{self.start[index] - origin}\t{self.end[index] - origin}\n"
                )
        return len(self.start)


#: The pipeline's stage methods; each call starts a trace of its own.
STAGES = {
    "collect": "collect",
    "traceability": "analyze_traceability",
    "code": "analyze_code",
    "honeypot": "run_honeypot",
}


def install(tracer: Tracer) -> Tracer:
    """Wrap every call behind the per-layer table (see ``perfbench/spec.json``)."""
    from repro.codeanalysis.analyzer import CodeAnalyzer
    from repro.core.checkpoint import PipelineCheckpoint
    from repro.core.journal import UnitTracker, WriteAheadJournal
    from repro.core.pipeline import AssessmentPipeline
    from repro.core.spill import SpillList
    from repro.core.vetting import VettingPipeline
    from repro.ecosystem import stream
    from repro.honeypot.experiment import HoneypotExperiment
    from repro.scraper.base import PoliteScraper
    from repro.serving.admission import AdmissionQueue
    from repro.serving.cache import VerdictCache
    from repro.serving.service import VettingService
    from repro.serving.workers import WorkerPool
    from repro.traceability.analyzer import TraceabilityAnalyzer
    from repro.web import dom, network, server

    tracer.patch_function(dom.parse_html, "web.dom.parse", after=_count_markup)
    tracer.patch_function(dom.select, "web.dom.select")
    tracer.patch_method(network.VirtualInternet, "exchange", "web.network.exchange")
    server.VirtualHost.handle = _host_handle(tracer, server.VirtualHost.handle, VettingService)
    tracer.patch_method(PoliteScraper, "fetch", "scraper.fetch")
    tracer.track(PoliteScraper, "scrapers")

    tracer.patch_method(AssessmentPipeline, "run", "core.pipeline.run")
    for stage, method in STAGES.items():
        tracer.patch_method(AssessmentPipeline, method, f"core.pipeline.{stage}", root=True)
    tracer.patch_method(TraceabilityAnalyzer, "analyze", "traceability.analyze")
    tracer.patch_method(CodeAnalyzer, "analyze_repo", "codeanalysis.analyze_repo")
    tracer.patch_method(HoneypotExperiment, "run", "honeypot.run")
    tracer.patch_function(stream.generate_ecosystem, "ecosystem.generate")
    tracer.patch_method(stream.EcosystemStream, "bot_at", "ecosystem.stream.bot_at")

    tracer.patch_method(UnitTracker, "finish_unit", "core.journal.capture")
    tracer.patch_method(WriteAheadJournal, "append", "core.journal.append")
    tracer.patch_method(WriteAheadJournal, "pending", "core.journal.scan")
    tracer.patch_method(PipelineCheckpoint, "save", "core.checkpoint.save")
    tracer.patch_method(SpillList, "append", "core.spill.append")
    SpillList.__iter__ = tracer.wrap_iterator("core.spill.read", SpillList.__iter__)
    # Every durable write reaches the disk through ``repro.core.storage``,
    # the only caller of ``os.fsync`` (a lint test holds it to that), so
    # wrapping the os function times each real fsync.
    os.fsync = tracer.wrap("core.storage.fsync", os.fsync)

    for kind in ("static", "code", "dynamic"):
        tracer.patch_method(VettingPipeline, f"review_{kind}", f"core.vetting.{kind}")
    tracer.patch_method(VerdictCache, "lookup", "serving.cache.lookup", after=_count_cache_hit)
    tracer.patch_method(AdmissionQueue, "admit", "serving.admission.admit", after=_count_shed)
    tracer.patch_method(WorkerPool, "execute", "serving.workers.execute")
    tracer.track(WorkerPool, "pools")
    return tracer


def _count_markup(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("web.dom.parse.bytes", len(args[0].encode("utf-8")))


def _count_cache_hit(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None and result[0] == "fresh":
        tracer.count("serving.cache.hits")


def _count_shed(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None:
        tracer.count("serving.admission.shed")


def _host_handle(tracer: Tracer, original: Callable, service_type: type) -> Callable:
    """``VirtualHost.handle``: site renders are ``web.server.handle``.

    The vetting service is a ``VirtualHost`` too; its request handling is
    the serving layer's work, so it gets a span name of its own.
    """
    site = tracer.intern("web.server.handle")
    service = tracer.intern("serving.handle")

    @functools.wraps(original)
    def handle(host, request, internet=None):
        if not tracer.active:
            return original(host, request, internet)
        is_service = isinstance(host, service_type)
        index = tracer.open(service if is_service else site)
        try:
            response = original(host, request, internet)
        finally:
            tracer.close(index)
        if not is_service:
            tracer.count("web.server.handle.bytes", len((response.body or "").encode("utf-8")))
        return response

    return handle


def layer_metrics(tracer: Tracer, population: int, files: dict[str, int]) -> dict[str, float]:
    """The per-layer table from one traced run.

    ``population`` is the workload's bot count (per-bot ratios divide by
    it); ``files`` holds the on-disk sizes the workload measured when its
    run ended (``journal``, ``journal_results``, ``checkpoint``, ``spill``,
    ``total``); a workload that writes nothing passes an empty dict.
    """
    spans = tracer.summary()

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def seconds(name: str, key: str = "s") -> float:
        return spans.get(name, {}).get(key, 0.0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    scrapers = tracer.instances.get("scrapers", [])
    stages = {stage: seconds(f"core.pipeline.{stage}") for stage in STAGES}
    metrics: dict[str, float] = {
        "web.dom.parse.calls": calls("web.dom.parse"),
        "web.dom.parse.s": seconds("web.dom.parse"),
        "web.dom.parse.bytes": tracer.counters.get("web.dom.parse.bytes", 0),
        "web.dom.select.calls": calls("web.dom.select"),
        "web.dom.select.s": seconds("web.dom.select"),
        "web.network.exchange.calls": calls("web.network.exchange"),
        "web.network.exchange.failed": spans.get("web.network.exchange", {}).get("raised", 0),
        "web.network.exchange.self_s": seconds("web.network.exchange", "self_s"),
        "web.server.handle.s": seconds("web.server.handle"),
        "web.server.handle.bytes": tracer.counters.get("web.server.handle.bytes", 0),
        "scraper.fetch.calls": calls("scraper.fetch"),
        "scraper.fetch.self_s": seconds("scraper.fetch", "self_s"),
        "scraper.retries": sum(
            s.stats.rate_limited + s.stats.captchas_seen + s.stats.transient_retries for s in scrapers
        ),
        "scraper.pages_per_bot": ratio(calls("scraper.fetch"), population),
    }
    metrics.update({f"core.pipeline.{stage}.s": value for stage, value in stages.items()})
    run = seconds("core.pipeline.run")
    lookups = calls("serving.cache.lookup")
    metrics.update(
        {
            "core.pipeline.other.s": max(run - sum(stages.values()), 0.0) if run else 0.0,
            "traceability.analyze.calls": calls("traceability.analyze"),
            "traceability.analyze.s": seconds("traceability.analyze"),
            "codeanalysis.analyze_repo.calls": calls("codeanalysis.analyze_repo"),
            "codeanalysis.analyze_repo.s": seconds("codeanalysis.analyze_repo"),
            "honeypot.run.calls": calls("honeypot.run"),
            "honeypot.run.s": seconds("honeypot.run"),
            "ecosystem.generate.s": seconds("ecosystem.generate"),
            "ecosystem.stream.bot_at.calls": calls("ecosystem.stream.bot_at"),
            "ecosystem.stream.regen_per_bot": ratio(calls("ecosystem.stream.bot_at"), population),
            "core.journal.capture.s": seconds("core.journal.capture"),
            "core.journal.append.calls": calls("core.journal.append"),
            "core.journal.append.s": seconds("core.journal.append"),
            "core.journal.scan.s": seconds("core.journal.scan"),
            "core.journal.bytes": files.get("journal", 0),
            "core.journal.bytes_per_result_byte": ratio(files.get("journal", 0), files.get("journal_results", 0)),
            "core.checkpoint.save.calls": calls("core.checkpoint.save"),
            "core.checkpoint.save.s": seconds("core.checkpoint.save"),
            "core.checkpoint.bytes": files.get("checkpoint", 0),
            "core.spill.append.s": seconds("core.spill.append"),
            "core.spill.read.s": seconds("core.spill.read"),
            "core.spill.bytes": files.get("spill", 0),
            "core.storage.fsync.calls": calls("core.storage.fsync"),
            "core.storage.fsync.s": seconds("core.storage.fsync"),
            "core.storage.durable_mib": files.get("total", 0) / 2**20,
            "serving.admission.shed": tracer.counters.get("serving.admission.shed", 0),
            "serving.cache.hit_ratio": ratio(tracer.counters.get("serving.cache.hits", 0), lookups),
            "core.vetting.static.s": seconds("core.vetting.static"),
            "core.vetting.code.s": seconds("core.vetting.code"),
            "core.vetting.dynamic.s": seconds("core.vetting.dynamic"),
            "serving.workers.execute.calls": calls("serving.workers.execute"),
            "serving.workers.execute.s": seconds("serving.workers.execute"),
            "serving.workers.fallbacks": sum(pool.fallbacks for pool in tracer.instances.get("pools", [])),
            "trace.spans": len(tracer.start),
        }
    )
    return metrics
