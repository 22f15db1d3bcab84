"""The benchmark's three workloads, each a closed loop of one client.

Every workload issues a fixed, seeded sequence of requests against the
public API (``repro.api.TopKService``, ``repro.store.SnapshotStore``
and the ``repro`` command line), so two commits run exactly the same
work and ``peak_rss_mb`` / ``store_bytes_per_tuple`` compare like with
like.  The length of the sequence is ``--seconds`` times a per-workload
rate, chosen so a run measures about ``--seconds`` on a 2-core host.
Inputs are generated from ``--seed`` by the benchmark; the program
only ever sees the generated databases and specs.

Why these three (the names are cited by later changes):

``serve-complete``
    Reads only, no store: 12 complete 20k-tuple snapshots queried with
    a Zipf skew over 4 values of k, a working set larger than the
    pool's 8-session LRU.  Loads leases, warm answer extraction and the
    cold PSR passes Lemma 2 cuts short.
``clean-incomplete``
    Writes through a durable store: each job registers a fresh 5k-tuple
    snapshot at completion 0.85, queries it cold, runs an executed
    cleaning (journaled, persisted, swept by retention) and queries
    the outcome.  Incompleteness defeats Lemma 2, so every pass scans
    the whole ranking; cleaning drives the delta engine, the planners
    and the store's fsyncs.
``reopen-store``
    Reads of a store of six 10k-tuple segments plus two cleaning
    outcomes: read-write opens (recovery) with one query, read-only
    opens with ``status()``, and one CLI query per cycle -- segment
    decode and verification, the structure rebuild and the cold
    re-rank that every CLI call pays.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from measure import (
    CALIBRATION_REFERENCE_S,
    Meter,
    calibration_s,
    percentile,
    query_answer_ok,
    same_answer,
)

from repro.api import (
    BatchSpec,
    CleaningSpec,
    QualitySpec,
    QuerySpec,
    TopKService,
)
from repro.core.pw import compute_quality_pw
from repro.datasets.synthetic import generate_synthetic
from repro.db import io
from repro.db.database import ProbabilisticDatabase
from repro.store import SnapshotStore


#: Requests (serve-complete), jobs (clean-incomplete) and op cycles
#: (reopen-store) issued per second of ``--seconds``.
SERVE_REQUESTS_PER_S = 600
CLEAN_JOBS_PER_S = 4.0
REOPEN_CYCLES_PER_S = 0.4

SIGMAS = (10.0, 30.0, 50.0, 100.0)
SERVE_KS = (15, 25, 50, 100)


def derive_seed(seed: int, *parts: Any) -> int:
    """A deterministic sub-seed for one generated input."""
    return random.Random(":".join(str(p) for p in (seed,) + parts)).randrange(2**31)


def fresh_copy(db: ProbabilisticDatabase) -> ProbabilisticDatabase:
    """An equal database object with no cached hash or ranking."""
    return ProbabilisticDatabase(db.xtuples, name=db.name)


def pw_oracle_check(meter: Meter, service: TopKService, seed: int) -> None:
    """Cross-check one small snapshot against the possible-world oracle."""
    small = generate_synthetic(
        num_xtuples=6, bars_per_xtuple=3, seed=derive_seed(seed, "pw")
    )
    try:
        sid = service.register(small).snapshot_id
        served = service.quality(sid, QualitySpec(k=2)).payload["quality"]
        oracle = compute_quality_pw(small.ranked(), 2).quality
        meter.check(same_answer(oracle, served), f"pw oracle {oracle} != {served}")
    except Exception as exc:  # a crash in the gate is a failed check
        meter.check(False, f"pw oracle check raised {type(exc).__name__}: {exc}")


def program_env() -> Dict[str, str]:
    """Environment for a child interpreter running the program from src/."""
    return dict(os.environ, PYTHONPATH=str(Path(io.__file__).resolve().parents[2]))


def store_bytes_per_tuple(store: SnapshotStore) -> float:
    """Segment plus journal bytes on disk per tuple in live segments."""
    status = store.status()
    tuples = sum(r.num_tuples for r in store.snapshots().values())
    return (status["segment_bytes"] + status["journal_bytes"]) / max(tuples, 1)


class Workload:
    """Common shape: generate, set up ``setups`` times, loop, gate."""

    name = ""
    units_per_s = 1.0
    #: Units per round; rounds hold equal work (see ``Meter.unit``).
    round_units = 1
    #: Units per block that a traced run traces or not as a whole
    #: (see ``Meter``).
    trace_units = 1
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 5

    def __init__(self, seed: int, seconds: float, work: Path, scale: float) -> None:
        self.seed = seed
        self.work = work
        self.scale = scale
        # An even number of rounds, at least two, so a traced run has
        # as many traced blocks as untraced ones.
        rounds = max(2, round(seconds * self.units_per_s / self.round_units))
        self.units = (rounds + rounds % 2) * self.round_units
        #: Registration latencies (ms) and host speed of each set-up.
        self.register_ms: List[List[float]] = []
        self.setup_speed: List[float] = []
        self.settings: Dict[str, Any] = {}

    def size(self, num_xtuples: int) -> int:
        return max(4, round(num_xtuples * self.scale))

    def generate(self) -> None:
        """The benchmark's own input generation (never timed)."""

    def set_up(self, index: int) -> float:
        """One timed set-up; returns its seconds."""
        # The previous set-up's service goes first, so two are never
        # alive at once to inflate the peak memory.
        self.service: Optional[TopKService] = None
        gc.collect()
        self.register_ms.append([])
        before = calibration_s()
        elapsed = self.setup(index)
        self.setup_speed.append(
            2 * CALIBRATION_REFERENCE_S / (before + calibration_s())
        )
        return elapsed

    def setup(self, index: int) -> float:
        raise NotImplementedError

    def run(self, meter: Meter) -> None:
        raise NotImplementedError

    def gate(self, meter: Meter) -> None:
        raise NotImplementedError

    def end_of_loop(self) -> Dict[str, float]:
        """Workload metrics read right after the timed loop."""
        return {}

    def timed_register(self, service: TopKService, db: ProbabilisticDatabase) -> str:
        start = time.perf_counter()
        sid = service.register(db).snapshot_id
        self.register_ms[-1].append((time.perf_counter() - start) * 1000.0)
        return sid


# ----------------------------------------------------------------------
# serve-complete
# ----------------------------------------------------------------------
class ServeComplete(Workload):
    name = "serve-complete"
    units_per_s = SERVE_REQUESTS_PER_S
    round_units = 200
    # Requests are independent draws, so traced runs alternate single
    # requests: blocks of them would differ in how many cold passes
    # the LRU misses cost.
    trace_units = 1
    SNAPSHOTS = 12
    ZIPF_S = 1.0
    SAMPLED = 48

    def generate(self) -> None:
        self.dbs = [
            generate_synthetic(
                num_xtuples=self.size(2000),
                sigma=SIGMAS[i % len(SIGMAS)],
                seed=derive_seed(self.seed, "serve", i),
            )
            for i in range(self.SNAPSHOTS)
        ]
        rng = random.Random(derive_seed(self.seed, "serve-requests"))
        weights = [1.0 / (rank + 1) ** self.ZIPF_S for rank in range(self.SNAPSHOTS)]
        self.requests: List[Tuple[int, Any]] = []
        for _ in range(self.units):
            snapshot = rng.choices(range(self.SNAPSHOTS), weights)[0]
            draw = rng.random()
            if draw < 0.60:
                spec: Any = QuerySpec(k=rng.choice(SERVE_KS), semantics="all")
            elif draw < 0.85:
                spec = QualitySpec(k=rng.choice(SERVE_KS), method="tp")
            else:
                spec = BatchSpec(
                    items=tuple(
                        QuerySpec(k=rng.choice(SERVE_KS), semantics="all")
                        if rng.random() < 0.5
                        else QualitySpec(k=rng.choice(SERVE_KS))
                        for _ in range(8)
                    )
                )
            self.requests.append((snapshot, spec))
        self.sampled = set(rng.sample(range(self.units), min(self.SAMPLED, self.units)))

    def setup(self, index: int) -> float:
        copies = [fresh_copy(db) for db in self.dbs]
        start = time.perf_counter()
        service = TopKService()
        sids = [self.timed_register(service, db) for db in copies]
        elapsed = time.perf_counter() - start
        self.service, self.sids = service, sids
        self.settings = {"durability": None, "max_sessions": service.pool.max_sessions}
        return elapsed

    def run(self, meter: Meter) -> None:
        self.checks: List[Tuple[int, int, Any, Any]] = []
        for i, (snapshot, spec) in enumerate(self.requests):
            meter.unit(i)
            sid = self.sids[snapshot]
            if isinstance(spec, QuerySpec):
                verb = "query"
            elif isinstance(spec, QualitySpec):
                verb = "quality"
            else:
                verb = "batch"
            # The method is looked up inside the request, after the
            # traced run has installed its wrappers.
            request, result = meter.call(
                "read", lambda: getattr(self.service, verb)(sid, spec)
            )
            if result is not None and i in self.sampled:
                self.checks.append((request, snapshot, spec, result.payload))

    def gate(self, meter: Meter) -> None:
        oracle = TopKService()
        sids = [oracle.register(fresh_copy(db)).snapshot_id for db in self.dbs]
        for request, snapshot, spec, payload in self.checks:
            sid = sids[snapshot]
            if sid != self.sids[snapshot]:
                meter.fail(request, "snapshot id differs from a fresh registration")
            if isinstance(spec, BatchSpec):
                ok = len(spec.items) == len(payload["items"]) and all(
                    answer_ok(oracle, sid, item, served["payload"])
                    for item, served in zip(spec.items, payload["items"])
                )
            else:
                ok = answer_ok(oracle, sid, spec, payload)
            if not ok:
                meter.fail(request, f"answer differs from a cold evaluation: {spec}")
        pw_oracle_check(meter, self.service, self.seed)


def answer_ok(oracle: TopKService, sid: str, spec: Any, payload: Dict[str, Any]) -> bool:
    """Check a query or quality payload against a cold evaluation."""
    if isinstance(spec, QualitySpec):
        return same_answer(oracle.quality(sid, spec).payload, payload)
    expected = oracle.query(sid, spec).payload
    with oracle.pool.lease(sid) as session:
        rank_probs = session.rank_probabilities(spec.k)
    return query_answer_ok(rank_probs, expected, payload)


# ----------------------------------------------------------------------
# clean-incomplete
# ----------------------------------------------------------------------
class CleanIncomplete(Workload):
    name = "clean-incomplete"
    units_per_s = CLEAN_JOBS_PER_S
    # One round runs each planner with and without adaptivity; traced
    # runs alternate whole rounds, so both sides run that mix.
    round_units = 6
    trace_units = 6
    # Its set-up is short and fsync-bound: more of them for the median.
    setups = 9
    # Set-up fills the retention window with this many snapshots.
    PREFILL = 8
    K = 50
    BUDGET = 10
    KEEP_LAST_N = 8

    def job_db(self, job: Any) -> ProbabilisticDatabase:
        return generate_synthetic(
            num_xtuples=self.size(500),
            completion=0.85,
            seed=derive_seed(self.seed, "clean", job),
        )

    def job_spec(self, job: int) -> CleaningSpec:
        return CleaningSpec(
            k=self.K,
            budget=self.BUDGET,
            planner="greedy" if job % 2 == 0 else "dp",
            execute=True,
            adaptive=job % 3 == 2,
            seed=derive_seed(self.seed, "probe", job),
            cost_seed=derive_seed(self.seed, "cost", job),
            sc_seed=derive_seed(self.seed, "sc", job),
        )

    def generate(self) -> None:
        self.prefill = [self.job_db(("prefill", i)) for i in range(self.PREFILL)]

    def setup(self, index: int) -> float:
        """Open the store and fill its retention window.

        The set-up the loop runs on then cleans one of the snapshots,
        untimed: the warm-up's cost depends on the seed's plan.
        """
        copies = [fresh_copy(db) for db in self.prefill]
        root = self.work / f"clean-store-{index}"
        shutil.rmtree(root, ignore_errors=True)
        start = time.perf_counter()
        service = TopKService(
            store_dir=root, durability="fsync", keep_last_n=self.KEEP_LAST_N
        )
        sids = [self.timed_register(service, db) for db in copies]
        elapsed = time.perf_counter() - start
        if index > 0:
            shutil.rmtree(self.work / f"clean-store-{index - 1}", ignore_errors=True)
        if index == self.setups - 1:
            service.query(sids[0], QuerySpec(k=self.K))
            service.clean(sids[0], self.job_spec(0))
        self.service = service
        self.settings = {
            "durability": "fsync",
            "keep_last_n": self.KEEP_LAST_N,
            "max_sessions": service.pool.max_sessions,
        }
        return elapsed

    def run(self, meter: Meter) -> None:
        service = self.service
        self.jobs: List[Dict[str, Any]] = []
        for job in range(self.units):
            meter.unit(job)
            db = self.job_db(job)
            spec = self.job_spec(job)
            record: Dict[str, Any] = {"db": db, "spec": spec, "traced": meter.traced}
            self.jobs.append(record)
            request, result = meter.call("register", lambda: service.register(db))
            if result is None:
                continue
            sid = record["sid"] = result.snapshot_id
            record["query"] = meter.call(
                "read", lambda: service.query(sid, QuerySpec(k=self.K))
            )
            record["clean"] = meter.call("clean", lambda: service.clean(sid, spec))
            cleaned = record["clean"][1]
            if cleaned is None:
                continue
            outcome = cleaned.payload["new_snapshot_id"]
            # Served from the cleaning's warm, patched session: a cost
            # class of its own, kept out of the cold reads' median.
            record["outcome_query"] = meter.call(
                "outcome_read", lambda: service.query(outcome, QuerySpec(k=self.K))
            )

    def end_of_loop(self) -> Dict[str, float]:
        assert self.service.store is not None
        improvements = [
            job["clean"][1].payload["expected_improvement"]
            for job in self.jobs
            if job.get("clean") and job["clean"][1] is not None
            and "expected_improvement" in job["clean"][1].payload
        ]
        return {
            "store_bytes_per_tuple": store_bytes_per_tuple(self.service.store),
            "plan_improvement": sum(improvements) / max(len(improvements), 1),
        }

    def gate(self, meter: Meter) -> None:
        """Every clean outcome, and a seeded third of the base snapshots."""
        oracle = TopKService()
        query, quality = QuerySpec(k=self.K), QualitySpec(k=self.K)
        rng = random.Random(derive_seed(self.seed, "clean-gate"))
        for job in self.jobs:
            if "sid" not in job:
                continue
            clean = job.get("clean")
            if rng.random() < 1 / 3:
                base = oracle.register(fresh_copy(job["db"])).snapshot_id
                _check(meter, job["query"], lambda r: answer_ok(
                    oracle, base, query, r.payload
                ), "base query differs from a cold evaluation")
                _check(meter, clean, lambda r: same_answer(
                    oracle.quality(base, quality).payload["quality"],
                    r.payload["quality_before"],
                ), "quality before cleaning differs from a cold evaluation")
            if clean is None or clean[1] is None:
                continue
            outcome = clean[1].payload["new_snapshot_id"]
            _check(meter, clean, lambda r: oracle.register(
                fresh_copy(self.service.database(outcome))
            ).snapshot_id == outcome, "outcome id does not match its content hash")
            if outcome not in oracle.pool:
                continue
            _check(meter, clean, lambda r: same_answer(
                oracle.quality(outcome, quality).payload["quality"],
                r.payload["quality_after"],
            ), "quality after cleaning differs from a cold evaluation")
            if "outcome_query" in job:
                _check(meter, job["outcome_query"], lambda r: answer_ok(
                    oracle, outcome, query, r.payload
                ), "outcome query differs from a cold evaluation")
        pw_oracle_check(meter, self.service, self.seed)

    def cleaning_stats(self) -> Dict[str, float]:
        """Adaptive rounds and probe success over the traced jobs' cleans."""
        rounds: List[int] = []
        performed = succeeded = 0
        for record in self.jobs:
            clean = record.get("clean")
            if not record["traced"] or clean is None or clean[1] is None:
                continue
            payload = clean[1].payload
            if record["spec"].adaptive:
                rounds.append(payload["rounds"])
            for probe in payload["probes"]:
                performed += probe["performed"]
                succeeded += 1 if probe["succeeded"] else 0
        return {
            "adaptive_rounds": sum(rounds) / len(rounds) if rounds else 0.0,
            "probes_performed": performed,
            "probes_succeeded": succeeded,
        }


def _check(
    meter: Meter, call: Optional[Tuple[int, Any]], ok: Callable[[Any], bool], reason: str
) -> None:
    """Mark a request failed when its result does not pass ``ok``."""
    if call is None or call[1] is None:
        return
    request, result = call
    try:
        good = ok(result)
    except Exception as exc:  # the oracle itself failing is a failed check
        good, reason = False, f"{reason} ({type(exc).__name__}: {exc})"
    if not good:
        meter.fail(request, reason)


# ----------------------------------------------------------------------
# reopen-store
# ----------------------------------------------------------------------
class ReopenStore(Workload):
    name = "reopen-store"
    units_per_s = REOPEN_CYCLES_PER_S
    # A cycle is four rounds (see ``run``) and issues every request
    # kind; traced runs alternate cycles.
    trace_units = 4
    K = 15
    SEGMENTS = 6
    #: Probes of each set-up cleaning: unit costs and certain success
    #: make its work the same for every seed.
    SETUP_PROBES = 4

    def generate(self) -> None:
        self.dbs = [
            generate_synthetic(
                num_xtuples=self.size(1000),
                sigma=SIGMAS[i % len(SIGMAS)],
                completion=1.0 if i < self.SEGMENTS // 2 else 0.85,
                seed=derive_seed(self.seed, "reopen", i),
            )
            for i in range(self.SEGMENTS)
        ]
        self.clean_specs = [
            CleaningSpec(
                k=self.K,
                budget=self.SETUP_PROBES,
                planner=planner,
                costs={x.xid: 1 for x in db.xtuples},
                sc_probabilities={x.xid: 1.0 for x in db.xtuples},
                execute=True,
                seed=derive_seed(self.seed, "reopen-clean", i),
            )
            for i, (planner, db) in enumerate(zip(("greedy", "dp"), self.dbs[3:]))
        ]

    def setup(self, index: int) -> float:
        copies = [fresh_copy(db) for db in self.dbs]
        root = self.work / f"reopen-store-{index}"
        db_path = self.work / f"reopen-db-{index}.json"
        shutil.rmtree(root, ignore_errors=True)
        start = time.perf_counter()
        service = TopKService(store_dir=root)
        sids = [self.timed_register(service, db) for db in copies]
        outcomes = [
            service.clean(sids[3 + i], spec).payload["new_snapshot_id"]
            for i, spec in enumerate(self.clean_specs)
        ]
        io.save_json(copies[0], db_path)
        elapsed = time.perf_counter() - start
        if index > 0:
            previous = self.work / f"reopen-store-{index - 1}"
            if sorted(self.expected) != sorted(sids + outcomes):
                raise RuntimeError("set-ups of one seed built different stores")
            shutil.rmtree(previous, ignore_errors=True)
            (self.work / f"reopen-db-{index - 1}.json").unlink()
        self.root, self.db_path = root, db_path
        self.expected = {
            sid: service.database(sid).content_hash() for sid in sids + outcomes
        }
        self.db_by_sid = dict(
            zip(sids + outcomes, self.dbs + [service.database(o) for o in outcomes])
        )
        self.query_targets = sids[3:] + outcomes
        self.cli_sid = sids[0]
        self.settings = {"durability": "fsync", "max_sessions": service.pool.max_sessions}
        return elapsed

    def read_ok(self, sid: str, payload: Dict[str, Any]) -> bool:
        """Check a k=15 query payload against a cold evaluation."""
        if not hasattr(self, "oracle"):
            self.oracle = TopKService()
        if sid not in self.oracle.pool:
            self.oracle.register(fresh_copy(self.db_by_sid[sid]))
        return answer_ok(self.oracle, sid, QuerySpec(k=self.K), payload)

    def run(self, meter: Meter) -> None:
        env = program_env()
        cli_out = self.work / "cli-envelope.json"
        self.rehashed = False
        for cycle in range(self.units):
            # The read after each read-write open rotates over the
            # incomplete snapshots (bases and cleaning outcomes): one
            # cost class, a full cold scan.
            target = self.query_targets[cycle % len(self.query_targets)]
            # Every request is a round of its own: at up to a second and
            # a half each, the host-speed calibration brackets each one.
            meter.unit(4 * cycle)
            self.rw_open(meter, 4 * cycle + 1, target)
            meter.unit(4 * cycle + 2)
            self.readonly_open(meter)
            meter.unit(4 * cycle + 3)
            self.cli_query(meter, env, cli_out)

    def rw_open(self, meter: Meter, unit: int, target: str) -> None:
        """A read-write open, then -- its own request -- one query on it."""
        request, service = meter.call("open", lambda: TopKService(store_dir=self.root))
        if service is None:
            return
        recovered = {
            sid: ranked.db for sid, ranked in service.store.snapshots().items()
        }
        if set(recovered) != set(self.expected):
            meter.fail(request, f"recovered {sorted(recovered)}")
        for sid, db in recovered.items():
            if db.content_hash() != self.expected.get(sid):
                meter.fail(request, f"recovered {sid} under another content hash")
        if not self.rehashed:
            # Once per run, rehash from fresh objects: the cached hash
            # was computed by the store's own verification.
            self.rehashed = True
            for sid, db in recovered.items():
                if fresh_copy(db).content_hash() != self.expected.get(sid):
                    meter.fail(request, f"recovered {sid} rehashes differently")
        # The read is a round of its own, so the host-speed calibration
        # brackets this one short request closely.
        meter.unit(unit)
        request, result = meter.call(
            "read", lambda: service.query(target, QuerySpec(k=self.K))
        )
        if result is not None and not self.read_ok(target, result.payload):
            meter.fail(request, "query after reopen differs from a cold evaluation")

    def readonly_open(self, meter: Meter) -> None:
        def op() -> Dict[str, Any]:
            return SnapshotStore(self.root, mode="readonly").status()

        request, status = meter.call("readonly_open", op)
        if status is None:
            return
        if sorted(status["snapshots"]) != sorted(self.expected) or status[
            "quarantined_files"
        ]:
            meter.fail(request, "readonly status disagrees with the built store")

    def cli_query(self, meter: Meter, env: Dict[str, str], out: Path) -> None:
        command = [
            sys.executable, "-m", "repro", "query", "--db", str(self.db_path),
            "--store", str(self.root), "-k", str(self.K), "--json", str(out),
        ]

        def op() -> "subprocess.CompletedProcess[str]":
            return subprocess.run(
                command, env=env, capture_output=True, text=True, timeout=120
            )

        request, proc = meter.call("cli", op)
        if proc is None:
            return
        if proc.returncode != 0:
            meter.fail(request, f"cli exit {proc.returncode}: {proc.stderr[-300:]}")
            return
        envelope = json.loads(out.read_text(encoding="utf-8"))
        if not self.read_ok(self.cli_sid, envelope["result"]["payload"]):
            meter.fail(request, "cli answer differs from a cold evaluation")

    def end_of_loop(self) -> Dict[str, float]:
        store = SnapshotStore(self.root, mode="readonly")
        return {"store_bytes_per_tuple": store_bytes_per_tuple(store)}

    def gate(self, meter: Meter) -> None:
        pw_oracle_check(meter, TopKService(store_dir=self.root), self.seed)

    def cli_import_ms(self) -> float:
        """Median wall time of ``import repro.cli`` in a fresh interpreter."""
        env = program_env()
        probe = (
            "import time; t = time.perf_counter(); import repro.cli; "
            "print((time.perf_counter() - t) * 1000.0)"
        )
        samples = [
            float(
                subprocess.run(
                    [sys.executable, "-c", probe], env=env, capture_output=True,
                    text=True, timeout=120, check=True,
                ).stdout
            )
            for _ in range(3)
        ]
        return percentile(samples, 0.5)


WORKLOADS = {cls.name: cls for cls in (ServeComplete, CleanIncomplete, ReopenStore)}
