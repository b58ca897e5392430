"""Deterministic crash-point registry and injection plumbing.

Per-stage checkpoints (PR 1) and integrity-checked resume (PR 3) only prove
recovery from the crash sites someone thought to test.  This module turns
"resume works" into an enumerable property: every place the pipeline is
allowed to die is marked with :func:`crashpoint`, the full set of marks is
the static :data:`REGISTRY`, and a harness (``tests/test_crash_matrix.py``)
kills a subprocess at each registered point, resumes it, and compares the
result JSON against a never-crashed golden run.

Injection is driven by environment variables so the *production* code path
stays a single dictionary lookup when nothing is armed:

``REPRO_CRASH_AT=name[:N]``
    die with :data:`EXIT_CODE` via ``os._exit`` at the ``N``-th hit of
    crash point ``name`` (default: the first).  ``os._exit`` is the point —
    no ``atexit`` hooks, no ``finally`` blocks, no buffer flushing; the
    process vanishes as if the machine lost power.

``REPRO_CRASHPOINTS_RECORD=path``
    append one line per hit to ``path``.  The harness runs the golden run
    with this set to learn which points fire (and how often) under a given
    configuration before arming any of them.

Unit tests that want to observe hits in-process install a handler with
:func:`set_handler`; while a handler is installed the environment variables
are ignored.
"""

from __future__ import annotations

import os
import threading

ENV_CRASH_AT = "REPRO_CRASH_AT"
ENV_RECORD = "REPRO_CRASHPOINTS_RECORD"

#: Exit status used for injected crashes — the conventional SIGKILL code, so
#: a harness can tell an injected death apart from an ordinary test failure.
EXIT_CODE = 137

#: Every crash point woven through the pipeline.  :func:`crashpoint` rejects
#: names outside this tuple so the registry cannot silently drift from the
#: call sites; the harness asserts the converse (every registered name is
#: actually reachable) by running an instrumented golden run.
REGISTRY = (
    "crawl.after_page",
    "traceability.after_bot",
    "code.after_bot",
    "honeypot.after_bot",
    "honeypot.before_save",
    "journal.mid_append",
    "checkpoint.after_tmp_write",
    "pipeline.after_stage",
    "supervision.after_quarantine",
    "run.before_result",
    # Streamed-mode cadence: mid-chunk and chunk-boundary kills inside the
    # chunked stage loops, plus a kill between assembling the stream-cursor
    # checkpoint payload and writing it.  Only ``--stream`` runs hit these;
    # the crash matrix covers them with a streamed scenario.
    "stream.mid_chunk",
    "stream.after_chunk",
    "stream.cursor_save",
)

#: Crash points inside the serving layer's vet-worker processes.  They live
#: in their own registry because the batch crash matrix proves coverage of
#: :data:`REGISTRY` against a golden *pipeline* run, which never enters the
#: serving pool; the serving tests hold the equivalent bar for these.
#: ``mid_vet`` fires before the worker computes anything (the vet is lost
#: outright); ``before_result`` fires after the compute but before the
#: result crosses the pipe (the worker did the work and died with it).
SERVING_REGISTRY = (
    "serving.worker.mid_vet",
    "serving.worker.before_result",
)

_REGISTERED = frozenset(REGISTRY) | frozenset(SERVING_REGISTRY)

_lock = threading.Lock()
_hits: dict[str, int] = {}
_handler = None


class UnknownCrashPointError(ValueError):
    """A ``crashpoint()`` call site used a name missing from :data:`REGISTRY`."""


def parse_arm(value: str) -> tuple[str, int]:
    """Parse a ``REPRO_CRASH_AT`` value into ``(name, occurrence)``."""
    name, _, occurrence = value.partition(":")
    return name, int(occurrence) if occurrence else 1


def crashpoint(name: str) -> None:
    """Mark a crash site.  A no-op unless armed, recording, or handled.

    A run's stages execute one unit at a time on the calling thread, so
    its hits arrive in a fixed order and ``name:N`` always names the same
    unit.  The counters are still lock-guarded, and ``os._exit`` kills the
    whole process whichever thread calls it.
    """
    if name not in _REGISTERED:
        raise UnknownCrashPointError(f"crash point {name!r} is not in the registry")
    with _lock:
        count = _hits[name] = _hits.get(name, 0) + 1
        record_path = os.environ.get(ENV_RECORD)
        if record_path:
            with open(record_path, "a", encoding="utf-8") as stream:
                stream.write(name + "\n")
    if _handler is not None:
        _handler(name, count)
        return
    armed = os.environ.get(ENV_CRASH_AT)
    if armed:
        target, occurrence = parse_arm(armed)
        if name == target and count == occurrence:
            os._exit(EXIT_CODE)


def set_handler(handler) -> None:
    """Install ``handler(name, count)`` for in-process tests (env ignored)."""
    global _handler
    _handler = handler


def hits() -> dict[str, int]:
    """Snapshot of hit counts since the last :func:`reset`."""
    with _lock:
        return dict(_hits)


def reset() -> None:
    """Clear hit counts and any installed handler."""
    global _handler
    with _lock:
        _hits.clear()
    _handler = None


def read_fired(record_path) -> dict[str, int]:
    """Read a ``REPRO_CRASHPOINTS_RECORD`` file into ``{name: hit_count}``."""
    counts: dict[str, int] = {}
    try:
        with open(record_path, encoding="utf-8") as stream:
            for line in stream:
                name = line.strip()
                if name:
                    counts[name] = counts.get(name, 0) + 1
    except FileNotFoundError:
        pass
    return counts
