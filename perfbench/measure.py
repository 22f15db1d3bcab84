"""Request timing, failure accounting and the run's host record.

:class:`Meter` is the closed-loop client's stopwatch: every request
goes through :meth:`Meter.call`, which times it (wall and CPU), counts
it as attempted, and records a failure when it raises.  The
correctness gate later marks answers that disagree with the oracle
through :meth:`Meter.fail`, so ``failed`` counts failed, refused and
incorrect requests alike.
"""

from __future__ import annotations

import os
import platform
import resource
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: Absolute tolerance of every answer cross-check.
TOLERANCE = 1e-9


def children_cpu_s() -> float:
    """CPU seconds of every waited-for child process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (``0 <= q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def same_answer(expected: Any, actual: Any, tol: float = TOLERANCE) -> bool:
    """Structural equality with floats compared within ``tol``."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected is actual
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(expected, (int, float)) or not isinstance(
            actual, (int, float)
        ):
            return False
        return abs(float(expected) - float(actual)) <= tol
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and expected.keys() == actual.keys()
            and all(same_answer(expected[key], actual[key], tol) for key in expected)
        )
    if isinstance(expected, (list, tuple)):
        return (
            isinstance(actual, (list, tuple))
            and len(expected) == len(actual)
            and all(same_answer(e, a, tol) for e, a in zip(expected, actual))
        )
    return bool(expected == actual)


def query_answer_ok(
    rank_probs: Any, expected: Dict[str, Any], actual: Dict[str, Any]
) -> bool:
    """Whether a query payload is right, ties broken either way.

    Symmetric uncertainty pdfs give sibling tuples equal probabilities,
    so two exact evaluations may order or pick tied tuples differently
    by float noise.  A payload is right when every probability it
    reports matches ``rank_probs`` (the oracle's pass) for that tuple,
    and every choice it makes is as good as the oracle's, both within
    :data:`TOLERANCE`.
    """

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= TOLERANCE

    if expected.keys() != actual.keys() or expected["k"] != actual["k"]:
        return False
    if "quality" in expected and not close(expected["quality"], actual["quality"]):
        return False
    if "ukranks" in expected:
        want, got = expected["ukranks"]["winners"], actual["ukranks"]["winners"]
        if len(want) != len(got):
            return False
        for e, a in zip(want, got):
            if e["rank"] != a["rank"] or not close(e["probability"], a["probability"]):
                return False
            if not close(rank_probs.rank_probability(a["tid"], a["rank"]), a["probability"]):
                return False
    if "global_topk" in expected:
        want, got = expected["global_topk"]["members"], actual["global_topk"]["members"]
        if len(want) != len(got):
            return False
        if not all(close(rank_probs.topk_probability(t), p) for t, p in got):
            return False
        ranked_want = sorted(p for _, p in want)
        ranked_got = sorted(p for _, p in got)
        if not all(close(e, a) for e, a in zip(ranked_want, ranked_got)):
            return False
    if "ptk" in expected:
        threshold = expected["ptk"]["threshold"]
        if actual["ptk"]["threshold"] != threshold:
            return False
        got = dict(actual["ptk"]["members"])
        for tid, p in got.items():
            if p < threshold - TOLERANCE or not close(rank_probs.topk_probability(tid), p):
                return False
        for tid, p in expected["ptk"]["members"]:
            if tid not in got and p >= threshold + TOLERANCE:
                return False
    return True


#: Seconds :func:`calibration_s` takes at full speed on the reference
#: machine: a 2-core x86_64 VM at 2.1 GHz, Python 3.11, numpy 2.4.
CALIBRATION_REFERENCE_S = 0.006


def calibration_s() -> float:
    """Time a fixed task mixing the program's kinds of work.

    JSON encoding, SHA-256, dict and tuple building, and numpy vector
    passes -- what hashing, registration and PSR passes spend their
    time on.  Best of three, so a collector pause does not count.
    """
    import hashlib
    import json

    import numpy

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        hasher = hashlib.sha256()
        rows = {}
        for i in range(600):
            record = [f"X{i}", [[f"X{i}.b{b}", i * 0.5 + b, 0.1] for b in range(3)]]
            hasher.update(json.dumps(record, separators=(",", ":")).encode())
            rows[record[0]] = tuple(record[1])
        column = numpy.linspace(0.0, 1.0, 1 << 16)
        for _ in range(8):
            column = numpy.cumsum(column) / column.size
        best = min(best, time.perf_counter() - start)
    return best


class Tally:
    """The requests of one side, traced or not, within a round."""

    def __init__(self) -> None:
        self.busy_s = 0.0
        self.cpu_s = 0.0
        self.completed = 0
        #: Latency samples in milliseconds, by request kind.
        self.latency_ms: Dict[str, List[float]] = defaultdict(list)


class Round:
    """One round of equal work.

    ``calibration`` holds :func:`calibration_s` taken at the round's
    start and end; :attr:`speed` turns it into the factor that scales
    the round's times to the reference host speed.
    """

    def __init__(self, calibration: float) -> None:
        self.sides = {False: Tally(), True: Tally()}
        self.calibration = [calibration]

    @property
    def speed(self) -> float:
        mean = sum(self.calibration) / len(self.calibration)
        return CALIBRATION_REFERENCE_S / mean


class Meter:
    """Times the requests of one run and tallies their outcomes.

    The workload calls :meth:`unit` before each unit of work; every
    ``round_units`` units start a new :class:`Round`, so per-round
    figures compare equal work.  With a recorder, units alternate in
    blocks of ``trace_units``: odd blocks run traced, even ones run the
    unmodified program.  A workload picks the block so both sides issue
    the same mix of requests.
    """

    def __init__(
        self, round_units: int = 1, recorder: Optional[Any] = None, trace_units: int = 1
    ) -> None:
        self.round_units = round_units
        self.trace_units = trace_units
        self.recorder = recorder
        #: Whether the current unit runs traced.
        self.traced = False
        self.attempted = 0
        self._failed: Set[int] = set()
        self.failures: List[str] = []
        #: Counter deltas from the envelopes of traced requests.
        self.envelopes: List[Dict[str, int]] = []
        self.rounds: List[Round] = []

    @property
    def failed(self) -> int:
        return len(self._failed)

    def fail(self, request: int, reason: str) -> None:
        """Mark a request failed (once, however many checks it fails)."""
        if request not in self._failed and len(self.failures) < 20:
            self.failures.append(f"request {request}: {reason}")
        self._failed.add(request)

    def check(self, ok: bool, reason: str) -> None:
        """Count a stand-alone gate check as one attempted operation."""
        self.attempted += 1
        if not ok:
            self.fail(self.attempted, reason)

    def unit(self, index: int) -> None:
        """Mark the start of unit ``index`` of the loop."""
        if index % self.round_units == 0:
            calibration = calibration_s()
            if self.rounds:
                self.rounds[-1].calibration.append(calibration)
            self.rounds.append(Round(calibration))
        self.traced = self.recorder is not None and (index // self.trace_units) % 2 == 1

    def finish(self) -> None:
        """Close the last round after the loop."""
        if self.rounds:
            self.rounds[-1].calibration.append(calibration_s())

    def call(self, kind: str, fn: Callable[[], Any]) -> Tuple[int, Any]:
        """Issue one request; returns its id and result (``None`` on error).

        ``kind`` names the latency series the request's wall time joins.
        In a traced unit the request runs with the recorder's wrappers
        installed, under a ``request`` root span.
        """
        self.attempted += 1
        request = self.attempted
        tally = self.rounds[-1].sides[self.traced]
        recorder = self.recorder if self.traced else None
        if recorder is not None:
            recorder.request = request
            recorder.install()
        error: Optional[BaseException] = None
        result: Any = None
        children0 = children_cpu_s()
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            if recorder is not None:
                with recorder.span("request"):
                    result = fn()
            else:
                result = fn()
        except Exception as exc:  # the client survives any failed request
            error = exc
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu0 + children_cpu_s() - children0
        if recorder is not None:
            recorder.uninstall()
        tally.busy_s += elapsed
        tally.cpu_s += cpu
        if error is not None:
            self.fail(request, f"{kind}: {type(error).__name__}: {error}")
            return request, None
        tally.completed += 1
        tally.latency_ms[kind].append(elapsed * 1000.0)
        counters = getattr(result, "counters", None)
        if self.traced and counters:
            self.envelopes.append(dict(counters))
        return request, result

    def tallies(self, traced: bool = False) -> List[Tuple[Tally, float]]:
        """Each round's tally of one side, with the round's host speed."""
        return [
            (r.sides[traced], r.speed) for r in self.rounds if r.sides[traced].completed
        ]

    def completed(self, traced: bool = False) -> int:
        return sum(t.completed for t, _ in self.tallies(traced))

    def ops_per_s(self, traced: bool = False) -> float:
        """Completed requests per second of scaled request time."""
        busy = sum(t.busy_s * speed for t, speed in self.tallies(traced))
        return self.completed(traced) / busy if busy > 0 else 0.0

    def latencies(self, kind: str, traced: bool = False) -> List[float]:
        """Scaled latency samples (ms) of one request kind."""
        return [
            ms * speed for t, speed in self.tallies(traced) for ms in t.latency_ms[kind]
        ]


def host_record() -> Dict[str, Any]:
    """The host a result was measured on; never compare across hosts."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
