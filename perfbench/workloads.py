"""The benchmark's three workloads, and the child process that measures one.

A workload builds the program's inputs from the seed (``setup``), makes one
measured call into the public API (``call``: one *pass*), and then, untimed,
hands back what the correctness checks compare (``outcome``).  ``run.py`` starts every measured run
as this file's ``__main__`` in a fresh process, so peak RSS, warm caches
and process-global state (such as the storage-fault shim) never carry over
from one run to the next::

    PYTHONPATH=src python3 perfbench/workloads.py --workload gate --seed 3 --mode measure

The last line of standard output is one JSON object (see :func:`main`).
Every timing in it is raw wall time with the :class:`SpeedProbe`'s own
time taken out, next to the probe's dilation over the same interval, so
that ``run.py`` can scale it to the reference speed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import tracing
from checks import canonical, digest, gate_problems

from repro.analysis.paper import PAPER_METRICS, compare_with_paper
from repro.core.checkpoint import STAGE_CODE, STAGE_CRAWL, STAGE_HONEYPOT, STAGE_TRACEABILITY
from repro.core.config import PipelineConfig
from repro.core.pipeline import AssessmentPipeline
from repro.core.serialize import comparable_result, result_to_dict
from repro.ecosystem import generator
from repro.serving import LoadScript, ServingHarness, VettingService
from repro.sites.botwebsites import BotWebsiteBuilder
from repro.web.client import HttpClient
from repro.web.network import VirtualClock, VirtualInternet

ROOT = Path(__file__).resolve().parent.parent
#: Run outputs (durable-run artifacts, span files): inside the checkout, ignored by git.
OUT = ROOT / ".bench_build" / "perfbench"


@dataclass(frozen=True)
class Scale:
    """Workload sizes: ``full`` is the benchmark, ``small`` serves its tests."""

    campaign_bots: int = 8_000
    campaign_honeypot: int = 500
    durable_bots: int = 1_000
    durable_honeypot: int = 100
    gate_bots: int = 10_000
    #: Waves of ``gate_requests_per_wave`` requests from each of two clients.
    gate_waves: int = 500
    gate_requests_per_wave: int = 10


SCALES = {
    "full": Scale(),
    "small": Scale(
        campaign_bots=600, campaign_honeypot=60, durable_bots=150, durable_honeypot=10,
        gate_bots=400, gate_waves=12,
    ),
}

#: Vet-worker processes on ``gate``: the benchmark's reference box has 2 cores.
GATE_WORKERS = 2


@dataclass
class Pass:
    """What one measured call produced."""

    #: Bots the call pushed through: the population, or the verdicts served.
    bots: int
    #: HTTP requests: exchanges the pipeline issued, or requests the load driver sent.
    requests: int
    attempted: int
    failed: int
    #: What the cross-run checks compare: the comparable result or report.
    comparable: dict
    problems: list[str]
    #: Bytes on disk when the call returned (``durable`` only).
    files: dict[str, int] = field(default_factory=dict)


def pipeline_pass(result, population: int, problems: list[str], files=None) -> Pass:
    """A pipeline pass: attempted units are every stage's processed + skipped + quarantined bots."""
    stages = result.metrics.stages.values()
    failed = sum(stage.bots_skipped + stage.bots_quarantined for stage in stages)
    return Pass(
        bots=population,
        requests=result.metrics.total_exchanges,
        attempted=sum(stage.bots_processed for stage in stages) + failed,
        failed=failed,
        comparable=comparable_result(result_to_dict(result)),
        problems=problems,
        files=files or {},
    )


def campaign_problems(result, config: PipelineConfig) -> list[str]:
    """Every paper row within tolerance, and every stage's books closed."""
    report = compare_with_paper(result)
    problems = [
        f"paper comparison: {row.metric.key} measured {row.measured:g}, "
        f"paper {row.metric.value:g} (allowed deviation {row.allowed:g})"
        for row in report.failures()
    ]
    if len(report.rows) != len(PAPER_METRICS):
        problems.append(f"paper comparison covered {len(report.rows)} of {len(PAPER_METRICS)} rows")
    active = result.crawl.with_valid_permissions()
    given = {
        STAGE_CRAWL: config.n_bots,
        STAGE_TRACEABILITY: len(active),
        STAGE_CODE: sum(1 for bot in active if bot.github_url),
        STAGE_HONEYPOT: min(config.honeypot_sample_size, config.n_bots),
    }
    for stage, population in given.items():
        entry = result.metrics.stage(stage)
        settled = None if entry is None else entry.bots_processed + entry.bots_skipped + entry.bots_quarantined
        if settled != population:
            problems.append(f"stage {stage}: {settled} of {population} bots processed, skipped or quarantined")
    return problems


class Campaign:
    """The paper's four stages over one materialized population, nothing durable."""

    name = "campaign"
    setups = 3
    passes = 2

    def __init__(self, seed: int, scale: Scale, traced: bool = False) -> None:
        self.population = scale.campaign_bots
        self.config = PipelineConfig(
            n_bots=scale.campaign_bots, seed=seed, honeypot_sample_size=scale.campaign_honeypot
        )

    def settings(self) -> str:
        return f"{self.population} bots materialized, {self.config.honeypot_sample_size}-bot honeypot sample"

    def setup(self) -> AssessmentPipeline:
        return AssessmentPipeline(self.config)

    def call(self, pipeline: AssessmentPipeline):
        return pipeline.run()

    def outcome(self, pipeline: AssessmentPipeline, result) -> Pass:
        return pipeline_pass(result, self.population, campaign_problems(result, self.config))

    def teardown(self, pipeline: AssessmentPipeline) -> None:
        pass


def artifact_sizes(directory: Path) -> dict[str, int]:
    """Bytes of journal, checkpoint and spill files under ``directory``."""
    sizes = {"journal": 0, "checkpoint": 0, "spill": 0, "total": 0}
    for path in directory.rglob("*"):
        if not path.is_file():
            continue
        size = path.stat().st_size
        sizes["total"] += size
        if path.name.startswith("journal"):
            sizes["journal"] += size
        elif path.parent.name.endswith(".spill"):
            sizes["spill"] += size
        else:
            sizes["checkpoint"] += size
    return sizes


def journal_result_bytes(path: Path) -> int:
    """Bytes of the per-unit results a journal carries, as canonical JSON."""
    total = 0
    with open(path, "rb") as journal:
        for line in journal:
            result = json.loads(line)["body"].get("result")
            if result is not None:
                total += len(canonical(result).encode("utf-8"))
    return total


class Durable:
    """The same pipeline streamed, checkpointed and journaled into a fresh directory."""

    name = "durable"
    #: Set-up takes about 2 ms here (the population is a lazy stream) and
    #: moves by a fifth from one set-up to the next, so its median needs
    #: many samples to settle; forty cost about a second.
    setups = 40
    #: Per-record fsyncs make a pass's wall time follow the disk's latency
    #: of the moment, which the speed probe does not see; the median of
    #: three passes rides out a slow one.
    passes = 3

    def __init__(self, seed: int, scale: Scale, traced: bool = False) -> None:
        self.population = scale.durable_bots
        self.config = PipelineConfig(
            n_bots=scale.durable_bots, seed=seed, honeypot_sample_size=scale.durable_honeypot
        )
        self.count_results = traced
        self._directories = 0

    def settings(self) -> str:
        fsync = self.config.journal_fsync_every
        cadence = "every record" if fsync == 1 else f"every {fsync} records"
        return (
            f"{self.population} bots streamed in chunks of {self.config.chunk_size}, "
            f"{self.config.honeypot_sample_size}-bot honeypot sample; checkpoint and journal, fsync {cadence} "
            f"(journal_fsync_every={fsync}); a fresh directory per pass under {OUT.relative_to(ROOT)}"
        )

    def setup(self) -> tuple[Path, AssessmentPipeline]:
        """A fresh artifact directory and a pipeline that writes into it."""
        self._directories += 1
        directory = OUT / f"durable-{os.getpid()}-{self._directories}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        config = replace(
            self.config,
            stream=True,
            checkpoint_path=str(directory / "checkpoint.json"),
            journal_path=str(directory / "journal.wal"),
        )
        return directory, AssessmentPipeline(config)

    def call(self, state: tuple[Path, AssessmentPipeline]):
        return state[1].run()

    def outcome(self, state: tuple[Path, AssessmentPipeline], result) -> Pass:
        files = artifact_sizes(state[0])
        if self.count_results:
            files["journal_results"] = journal_result_bytes(state[0] / "journal.wal")
        return pipeline_pass(result, self.population, [], files)

    def teardown(self, state: tuple[Path, AssessmentPipeline]) -> None:
        shutil.rmtree(state[0], ignore_errors=True)

    def control(self) -> dict:
        """The plain materialized run of the same population the durable result must equal."""
        return comparable_result(result_to_dict(AssessmentPipeline(self.config).run()))


class Gate:
    """The vetting service over a bot directory, driven by the scripted load harness."""

    name = "gate"
    #: One per pass: no set-up is timed alone.
    setups = 5
    #: The service and its two workers share two cores with whatever else
    #: runs there, and the speed probe sees only the service's core; the
    #: median of five short passes rides out a pass that stalled.
    passes = 5

    def __init__(self, seed: int, scale: Scale, traced: bool = False, workers: int = GATE_WORKERS) -> None:
        self.seed = seed
        self.scale = scale
        self.population = scale.gate_bots
        self.workers = workers
        self.script = LoadScript(
            waves=scale.gate_waves,
            requests_per_wave=scale.gate_requests_per_wave,
            clients=2,
            wave_gap=1_800.0,
            repeat_fraction=0.6,
            audit_every=13,
            update_every=29,
        )

    def settings(self) -> str:
        script = self.script
        requests = script.waves * script.requests_per_wave * script.clients
        return (
            f"{self.population}-bot directory, vet-worker pool of {self.workers} processes, "
            f"closed loop of {script.clients} interleaved clients driven from one thread, "
            f"{requests} requests per pass, no chaos"
        )

    def setup(self) -> ServingHarness:
        ecosystem = generator.generate_ecosystem(
            generator.EcosystemConfig(n_bots=self.population, seed=self.seed, honeypot_window=100)
        )
        internet = VirtualInternet(VirtualClock(), seed=self.seed)
        BotWebsiteBuilder(ecosystem).register(internet)
        service = VettingService(internet, ecosystem.bots, seed=self.seed, workers=self.workers)
        for index in range(3):
            roster = [bot.name for bot in ecosystem.bots[index * 5 : index * 5 + 5]]
            service.register_guild(f"community-{index}", roster)
        return ServingHarness(internet, service, seed=self.seed)

    def call(self, harness: ServingHarness):
        return harness.run(self.script)

    def outcome(self, harness: ServingHarness, report) -> Pass:
        refused = sum(count for status, count in report.status_counts.items() if status == 429 or status >= 500)
        return Pass(
            bots=report.verdicts,
            requests=report.requests_sent,
            attempted=report.requests_sent,
            failed=refused + report.transport_errors,
            comparable=report.comparable_dict(),
            problems=gate_problems(report.to_dict()),
        )

    def teardown(self, harness: ServingHarness) -> None:
        harness.service.shutdown()

    def control(self) -> dict:
        """The same script against the same service with no worker pool."""
        plain = Gate(self.seed, self.scale, workers=0)
        harness = plain.setup()
        try:
            return harness.run(plain.script).comparable_dict()
        finally:
            plain.teardown(harness)


WORKLOADS = {workload.name: workload for workload in (Campaign, Durable, Gate)}


class SpeedProbe:
    """Samples how fast this machine runs Python while the workload runs.

    The reference box is a shared VM whose speed moves by half or more from
    one second to the next.  Every ``INTERVAL_S`` a timer signal runs a
    fixed slice of interpreter work in this process and records how long it
    took.  The mean slice over an interval, divided by ``REFERENCE_SLICE_S``
    (the slice on the reference box at its usual speed), is the interval's
    *dilation*; ``run.py`` divides each timing by it, or by its square root
    for timings that follow it only in part (``run.PARTIAL``).  The slice formats,
    case-maps and rewrites short strings, the kind of work the program does
    most: when the box slows down, it slows down by about as much as a pass
    does, where a pure integer loop slows down less.  It allocates only
    strings, which the garbage collector does not track, so it never
    triggers the program's collections, and its own time is taken out of
    every timing here.
    """

    INTERVAL_S = 0.1
    SLICE = 2_000
    REFERENCE_SLICE_S = 0.0015
    #: A timing shorter than the interval takes the samples this close to it.
    WINDOW_S = 0.25

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.durations: list[float] = []
        #: Seconds spent in slices so far: timings subtract the part inside them.
        self.spent = 0.0
        self._words = [f"slice-{i:05d}-{'x' * (i % 17)}" for i in range(self.SLICE)]

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        words, size = self._words, 0
        for i in range(self.SLICE):
            size += len(("%d-%s" % (i, words[i])).upper().replace("-", "_"))
        elapsed = time.perf_counter() - start
        self.stamps.append(start)
        self.durations.append(elapsed)
        self.spent += elapsed

    def start(self) -> "SpeedProbe":
        # Forked children (the vet-worker pool) inherit the handler but not the timer.
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def dilation(self, start: float, end: float) -> tuple[float, float]:
        """Mean and median slice between ``start`` and ``end`` (widened to
        ``WINDOW_S``), each over the reference slice."""
        middle, half = (start + end) / 2, max((end - start) / 2, self.WINDOW_S)
        inside = [d for t, d in zip(self.stamps, self.durations) if middle - half <= t <= middle + half]
        if not inside:
            inside = self.durations[-3:] or [self.REFERENCE_SLICE_S]
        return (
            statistics.fmean(inside) / self.REFERENCE_SLICE_S,
            statistics.median(inside) / self.REFERENCE_SLICE_S,
        )


class Stopwatch:
    """Wall time of an interval minus the probe slices inside it."""

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.start = time.perf_counter()
        self.spent = probe.spent

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - (self.probe.spent - self.spent)


class RequestTimer:
    """Times each top-level ``HttpClient.request``: one request as its client sees it.

    Requests made while serving another request (the vetting service's
    own outbound fetches) run inside it and are not timed on their own.
    With ``path``, only requests whose URL contains it count (``/vet/``).
    ``take()`` hands over the samples since the last call: one pass's.
    """

    def __init__(self, probe: SpeedProbe, path: str | None = None) -> None:
        self.probe = probe
        self.path = path
        self.samples: list[float] = []
        self._inside = False

    def install(self) -> "RequestTimer":
        original = HttpClient.request
        timer = self

        def request(client, method, url, *args, **kwargs):
            if timer._inside:
                return original(client, method, url, *args, **kwargs)
            timer._inside = True
            watch = Stopwatch(timer.probe)
            try:
                return original(client, method, url, *args, **kwargs)
            finally:
                elapsed = watch.elapsed()
                timer._inside = False
                if timer.path is None or timer.path in str(url):
                    timer.samples.append(elapsed)

        HttpClient.request = request
        return self

    def take(self) -> list[float]:
        samples, self.samples = self.samples, []
        return samples


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q / 100 * len(ordered)), 1) - 1]


def peak_rss_mib() -> float:
    """Peak resident set (VmHWM) of this process; pool workers are other processes."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


@dataclass
class Timed:
    """One timed set-up or pass: raw seconds and the probe's dilation over them."""

    seconds: float
    #: Mean slice over the reference: scales a timing of the whole interval.
    dilation: float
    #: Median slice over the reference: scales a percentile of short requests.
    typical_dilation: float


def timed(probe: SpeedProbe, call):
    watch = Stopwatch(probe)
    result = call()
    seconds = watch.elapsed()
    return Timed(seconds, *probe.dilation(watch.start, time.perf_counter())), result


def measure(workload, probe: SpeedProbe, timer: RequestTimer, seconds: float, setups: int,
            least_passes: int, tracer: tracing.Tracer | None = None):
    """Set-ups alone until ``least_passes`` of ``setups`` are left, then passes, each on
    a fresh set-up, until ``seconds`` of measured calls and at least ``least_passes`` of them.

    The lone set-ups come first, on the fresh heap every run starts from,
    not on whatever the passes left behind.  Returns the timed set-ups, the
    peak RSS when the first pass's call returned, and per pass its timing,
    its request samples and what it produced.  What a pass produced is read
    after its timing ends, with the ``tracer`` (if any) paused.
    """
    setup_times: list[Timed] = []
    for _ in range(setups - least_passes):
        setup, state = timed(probe, workload.setup)
        setup_times.append(setup)
        workload.teardown(state)
        del state
        gc.collect()
    passes: list[tuple[Timed, list[float], Pass]] = []
    peak = 0.0
    while len(passes) < least_passes or sum(timing.seconds for timing, _, _ in passes) < seconds:
        setup, state = timed(probe, workload.setup)
        setup_times.append(setup)
        timer.take()
        try:
            timing, result = timed(probe, lambda: workload.call(state))
            samples = timer.take()
            peak = peak or peak_rss_mib()
            if tracer is not None:
                tracer.active = False
            passes.append((timing, samples, workload.outcome(state, result)))
            if tracer is not None:
                tracer.active = True
        finally:
            workload.teardown(state)
        # Drop this pass's world before the next set-up builds another one.
        del state, result
        gc.collect()
    return setup_times, peak, passes


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Measure one benchmark workload in this process.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument(
        "--mode",
        choices=("measure", "single", "traced", "control"),
        required=True,
        help="measure: passes for --seconds; single: one set-up and one pass; "
        "traced: single with spans; control: the untimed reference run",
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, SCALES[args.scale], traced=args.mode == "traced")
    if args.mode == "control":
        print(json.dumps({"comparable": workload.control()}))
        return
    tracer = tracing.install(tracing.Tracer()) if args.mode == "traced" else None
    probe = SpeedProbe().start()
    timer = RequestTimer(probe, "/vet/" if args.workload == "gate" else None).install()
    if args.mode == "measure":
        setup_times, peak, passes = measure(workload, probe, timer, args.seconds, workload.setups, workload.passes)
    else:
        setup_times, peak, passes = measure(workload, probe, timer, 0.0, 1, 1, tracer)
    probe.stop()
    outcomes = [done for _, _, done in passes]
    output = {
        "settings": workload.settings(),
        "controlled": hasattr(workload, "control"),
        "setups": [vars(setup) for setup in setup_times],
        "passes": [
            {
                **vars(timing),
                "requests_timed": len(samples),
                "request_p50_ms": percentile(samples, 50) * 1e3,
                "request_p99_ms": percentile(samples, 99) * 1e3,
                **{key: getattr(done, key) for key in ("bots", "requests", "attempted", "failed", "files")},
            }
            for timing, samples, done in passes
        ],
        "probe_samples": len(probe.durations),
        "peak_rss_mib": peak,
        "digests": [digest(done.comparable) for done in outcomes],
        "comparable": outcomes[0].comparable,
        "problems": sorted({problem for done in outcomes for problem in done.problems}),
    }
    if tracer is not None:
        tracer.active = False
        output["layers"] = tracing.layer_metrics(tracer, workload.population, outcomes[0].files)
        spans = OUT / f"spans-{args.workload}.tsv"
        tracer.write(spans)
        output["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(output))


if __name__ == "__main__":
    main()
