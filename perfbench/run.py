"""The repository benchmark: three workloads through the public API, checked.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 5 --trace 0

Workload definitions, metric definitions and the per-layer table are in
``perfbench/spec.json``; metric names, units and bounds in
``BENCHMARK.json``.  Every timed run starts in a fresh child process
(``perfbench/workloads.py``), and so does the untimed control run that the
``durable`` and ``gate`` checks compare against.  Timings are scaled to
the reference speed by the speed probe's dilation over each pass or
set-up (``workloads.SpeedProbe``); the raw figures are printed beside them.
Lines describing the run go to standard output first; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  A traced run alternates untraced and traced children
in pairs, as many as fit its time budget, reports the median cost of
tracing as ``trace.overhead.*`` and writes the last traced child's spans
under ``.bench_build/perfbench``.  ``--scale small`` shrinks every workload
for the benchmark's own tests.

Exit status: 0 when every check passed; 1 when a check failed (the JSON
then says ``"correct": false``); 2 when the benchmark could not run, in
which case no JSON is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import comparison_problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run must end within 180 s; stop waiting for children a little before.
BUDGET_S = 170.0
#: A traced run starts another untraced/traced pair only if it would end by then.
TRACE_BUDGET_S = 90.0
MAX_PAIRS = 3
#: How much of the speed probe's dilation a set-up or a median request
#: follows.  Over two ten-seed sweeps on the reference box (spec.json,
#: run.scaling) the log of their raw time rose with the log of the
#: dilation at a slope of 0.50-0.69; passes and the p99 request rose at
#: 0.85-1.09 and take the whole dilation.
PARTIAL = 0.5


class BenchmarkError(Exception):
    """The benchmark could not run: a child failed or hung."""


def child(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    """Run ``workloads.py`` in a fresh process and return its JSON line."""
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--scale", args.scale,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"the {mode} run of {args.workload} did not finish in time") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(f"the {mode} run of {args.workload} failed with exit status {done.returncode}")
    return json.loads(lines[-1])


def end_to_end(run: dict, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics of one child run: medians over its set-ups and passes.

    ``scaled`` divides every timing by the speed probe's dilation over it,
    which gives the figure at the reference speed; without it, raw wall time.
    Passes and the p99 request are scaled by the mean slice, which counts
    the stalls of the machine: a whole pass contains them, and the slowest
    requests are the ones that met one.  The median request is too short
    to meet a stall, so the median slice scales it.  Set-ups and the median
    request take only the ``PARTIAL`` power of their dilation.
    """

    def dilation(timed: dict, key: str = "dilation", power: float = 1.0) -> float:
        return timed[key] ** power if scaled else 1.0

    setups, passes = run["setups"], run["passes"]
    return {
        "setup_s": statistics.median(done["seconds"] / dilation(done, power=PARTIAL) for done in setups),
        "bots_per_s": statistics.median(done["bots"] * dilation(done) / done["seconds"] for done in passes),
        "requests_per_s": statistics.median(
            done["requests"] * dilation(done) / done["seconds"] for done in passes
        ),
        "request_p50_ms": statistics.median(
            done["request_p50_ms"] / dilation(done, "typical_dilation", PARTIAL) for done in passes
        ),
        "request_p99_ms": statistics.median(done["request_p99_ms"] / dilation(done) for done in passes),
        "peak_rss_mib": run["peak_rss_mib"],
    }


def problems_of(run: dict, control: dict | None) -> list[str]:
    problems = list(run["problems"])
    if len(set(run["digests"])) > 1:
        problems.append("passes with the same seed produced different outputs")
    if control is not None:
        problems += comparison_problems(run["comparable"], control["comparable"], "control run")
    return problems


def describe(run: dict, label: str) -> list[str]:
    passes = run["passes"]
    dilations = ", ".join(f"{done['dilation']:.3f}" for done in passes)
    samples = ", ".join(str(done["requests_timed"]) for done in passes)
    raw = end_to_end(run, scaled=False)
    return [
        f"  {label}: {len(passes)} pass(es), {sum(done['seconds'] for done in passes):.2f} s measured; "
        f"setup_s is the median of {len(run['setups'])} set-ups; "
        f"request percentiles per pass over {samples} requests, then their median; "
        f"dilation per pass {dilations} ({run['probe_samples']} probe samples)",
        f"    {'metric':<16} {'reference speed':>16} {'raw':>14}",
        *(f"    {name:<16} {value:16.6f} {raw[name]:14.6f}" for name, value in end_to_end(run).items()),
    ]


def measured(args: argparse.Namespace, deadline: float):
    run = child(args, "measure", deadline)
    control = child(args, "control", deadline) if run["controlled"] else None
    return end_to_end(run), describe(run, "untraced run"), problems_of(run, control), run


def traced(args: argparse.Namespace, deadline: float, better: dict[str, str]):
    """Untraced and traced children in pairs, alternating which runs first.

    The per-layer metrics and spans come from the last traced child; each
    ``trace.overhead.<metric>`` is the median over the pairs of the traced
    child's cost against the untraced one, as a share, in the metric's bad
    direction.
    """
    start = time.monotonic()
    first = child(args, "single", deadline)
    pair_s = time.monotonic() - start
    control = child(args, "control", deadline) if first["controlled"] else None
    traced_start = time.monotonic()
    pairs = [(first, child(args, "traced", deadline))]
    # Another pair must fit even if it runs half as slow again as the first.
    pair_s = 1.5 * (pair_s + time.monotonic() - traced_start)
    while len(pairs) < MAX_PAIRS and time.monotonic() - start + pair_s <= TRACE_BUDGET_S:
        modes = ("traced", "single") if len(pairs) % 2 else ("single", "traced")
        runs = dict(zip(modes, (child(args, mode, deadline) for mode in modes)))
        pairs.append((runs["single"], runs["traced"]))
    costs: dict[str, list[float]] = {name: [] for name in better}
    for plain_run, traced_run in pairs:
        plain, with_spans = end_to_end(plain_run), end_to_end(traced_run)
        for name, value in plain.items():
            cost = with_spans[name] / value if better[name] == "lower" else value / with_spans[name]
            costs[name].append(cost - 1.0)
    run = pairs[-1][1]
    values = dict(run["layers"])
    values.update({f"trace.overhead.{name}": statistics.median(shares) for name, shares in costs.items()})
    lines = describe(pairs[-1][0], "last untraced run") + describe(run, "last traced run")
    lines.append(f"  tracing overhead: median over {len(pairs)} untraced/traced pair(s)")
    lines.append(f"  spans: {run['layers']['trace.spans']} written to {run['spans_file']}")
    problems = [problem for pair in pairs for one in pair for problem in problems_of(one, control)]
    return values, lines, sorted(set(problems)), run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", choices=("campaign", "durable", "gate"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0, help="least measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    specs = benchmark["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            values, lines, problems, run = traced(args, deadline, better)
        else:
            values, lines, problems, run = measured(args, deadline)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    attempted = sum(done["attempted"] for done in run["passes"])
    failed = sum(done["failed"] for done in run["passes"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  settings: {run['settings']}")
    print("  hygiene: every timed run in a fresh process; load driven from one thread")
    for line in lines:
        print(line)
    for spec in specs:
        print(f"  {spec['name']:<40} {values[spec['name']]:>16.6f} {spec['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks: {'FAILED' if problems else 'passed'}; {failed} of {attempted} operations failed")
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
