"""serve_generated: an open-loop load of seeded ``/synth`` requests.

``repro serve --workers 1`` runs as a subprocess that this benchmark owns
(started in its own session, stopped and reaped after every run, also on
error).  The load is an open loop: request ``i`` is due at ``i / RATE``
seconds, whether or not earlier requests have been answered.  Every
request is timed from when it was due.  Two connections carry the load,
one per thread: the sender posts each request on schedule without
waiting for the job (``202`` plus a job id), the poller watches the
outstanding jobs until they finish.

The request mix: 60% fresh ``generate_spec`` specs sent inline as
``.g`` text, 25% exact repeats of an earlier request (dedup / history
hits) and 15% delays-only variants of an earlier spec (store reuse up
to the timing stage).  ``--seed`` draws the order of all requests, which
requests repeat or vary, and the variants' delays.

After the measured window the benchmark runs every distinct request
again in-process, each one cold (engine caches cleared, a fresh artifact
store) with ``run_synth_job``, and requires the server's ``result`` bytes
to match; no verdict may be ``violating`` and no job may fail.  A traced
run replays twice, untraced and under the layer tracer, and takes the
per-layer figures from the traced replay; the ``serve.*`` figures come
from the server's own ``/stats`` and ``/jobs/<id>/trace``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from common import BenchError, Unit, canonical, dir_bytes, dump_trace, \
    latency_metrics, percentile, remove_dir, scratch_dir
from tracing import Tracer, layer_metrics

#: Offered load: 105 requests (63 fresh) in a 30 s window, with the worker
#: about a quarter busy.  At 5/s the queueing behind heavy specs moved the
#: 90th percentile by up to ~37% between runs on a shared 2-CPU host.
RATE = 3.5
KNOBS = (1, 2, 5)          # GenKnobs(max_fragments, max_mutations, max_signals)
MIX = (0.60, 0.25, 0.15)   # fresh, exact repeat, delays-only variant
POOL_SEED = 1_000_000      # derivation seed of the fresh-spec pool
DELAY_CHOICES = ("1", "2", "3")
#: Latency limit of the SLO: about 3x the unloaded 90th-percentile
#: service time of these specs (~0.3 s).
SLO_SECONDS = 1.0
#: Hard per-request limit (from the due time); later answers are failures.
CLIENT_TIMEOUT = 10.0
#: The run is invalid when a request was sent later than this.
MAX_LATENESS = 0.25
BOOT_TIMEOUT = 60.0
POLL_PAUSE = 0.005


class Server:
    """One ``repro serve`` subprocess, reaped on :meth:`stop`."""

    def __init__(self, store: str, log_dir: str) -> None:
        self.log_path = os.path.join(log_dir, "serve.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--port", "0", "--store", store],
            stdout=subprocess.DEVNULL, stderr=self._log,
            start_new_session=True)
        self.port = None

    def wait_healthy(self) -> None:
        """Read the port from the server's log, then await ``/healthz``."""
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            with open(self.log_path, encoding="utf-8") as handle:
                log = handle.read()
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"the server did not start: {log[-2000:]}")
            for line in log.splitlines():
                if line.startswith("serving on http://"):
                    self.port = int(line.split()[2].rsplit(":", 1)[1])
            if self.port is not None:
                client = Client(self.port)
                try:
                    if client.get("/healthz")[0] == 200:
                        return
                except OSError:
                    pass
                finally:
                    client.close()
            time.sleep(0.01)

    def stop(self) -> None:
        """Interrupt, then kill the whole session; always reap."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGINT)
                try:
                    self.process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    pass
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.process.wait()
        finally:
            self._log.close()


class Client:
    """One keep-alive HTTP connection to the server."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=CLIENT_TIMEOUT)

    def request(self, method: str, path: str, body: bytes = None):
        headers = {"Content-Type": "application/json"} if body else {}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def get(self, path: str):
        return self.request("GET", path)

    def close(self) -> None:
        self.connection.close()


def _fresh_pool(count: int) -> List[dict]:
    """The ``count`` fresh request bodies: distinct generated specs.

    The pool is drawn from a fixed derivation seed, so every run sends
    the same fresh specs; ``--seed`` decides their order and the mix
    around them.  (With seed-drawn specs, the per-spec cost tail made
    p50/p90 latency swing ~100% from seed to seed.)  Small knobs often
    derive the same spec twice; the pool keeps each spec once.
    """
    from repro.petri.parser import write_stg
    from repro.specs.generate.random import GenKnobs, generate_spec
    knobs = GenKnobs(*KNOBS)
    pool: List[dict] = []
    seen = set()
    draw = POOL_SEED
    while len(pool) < count:
        spec = generate_spec(draw, knobs)
        draw += 1
        text = write_stg(spec.build())
        if text not in seen:
            seen.add(text)
            pool.append({"stg": text, "name": spec.name,
                         "config": {"verify": True}})
    return pool


def _fresh_count(count: int) -> int:
    return max(1, round(MIX[0] * count))


def _schedule(seed: int, count: int, pool: List[dict]):
    """``count`` request bodies in send order (same seed, same load).

    ``pool`` holds the fresh specs, one per fresh request.  Returns the
    bodies and each request's kind (fresh, repeat or variant).
    """
    rng = random.Random(seed)
    fresh_count = _fresh_count(count)
    repeat_count = round(MIX[1] * count)
    kinds = (["repeat"] * repeat_count
             + ["variant"] * (count - fresh_count - repeat_count)
             + ["fresh"] * (fresh_count - 1))
    rng.shuffle(kinds)
    kinds.insert(0, "fresh")
    pool = list(pool)
    rng.shuffle(pool)
    fresh = [pool.pop()]
    bodies = [canonical(fresh[0])]
    for kind in kinds[1:]:
        if kind == "fresh":
            fresh.append(pool.pop())
            body = fresh[-1]
        elif kind == "repeat":
            bodies.append(rng.choice(bodies))
            continue
        else:
            body = dict(rng.choice(fresh))
            body["config"] = {"verify": True, "delays": [
                rng.choice(DELAY_CHOICES) for _ in range(3)]}
        bodies.append(canonical(body))
    return bodies, kinds


class _Load:
    """Shared state of one open-loop run (sender + poller threads)."""

    def __init__(self, count: int) -> None:
        self.lock = threading.Lock()
        self.due: List[float] = [0.0] * count
        self.sent: List[Optional[float]] = [None] * count
        self.done: List[Optional[float]] = [None] * count
        self.job: List[Optional[str]] = [None] * count
        self.failed: List[bool] = [False] * count
        #: Server-side job failures (pipeline errors): job id -> error.
        self.job_errors: Dict[str, str] = {}
        self.history_hits = 0
        self.waiting: Dict[str, List[int]] = {}
        self.results: Dict[str, dict] = {}
        self.sender_finished = False
        self.max_backlog = 0


def _send_all(port: int, bodies: List[bytes], load: _Load,
              start: float) -> None:
    client = Client(port)
    try:
        for index, body in enumerate(bodies):
            due = start + index / RATE
            load.due[index] = due
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            load.sent[index] = time.perf_counter()
            try:
                status, view = client.request("POST", "/synth", body)
            except (OSError, http.client.HTTPException, ValueError):
                client.close()
                client = Client(port)
                with load.lock:
                    load.failed[index] = True
                continue
            now = time.perf_counter()
            with load.lock:
                if status not in (200, 202):
                    load.failed[index] = True
                    continue
                jid = view["job"]
                load.job[index] = jid
                if view["status"] in ("done", "failed"):
                    load.history_hits += view["status"] == "done"
                    _finish(load, jid, view, now, [index])
                else:
                    load.waiting.setdefault(jid, []).append(index)
    finally:
        client.close()
        with load.lock:
            load.sender_finished = True


def _finish(load: _Load, jid: str, view: dict, now: float,
            indices: List[int]) -> None:
    """Record a terminal job view for the requests waiting on it."""
    for index in indices:
        if view["status"] == "done":
            load.done[index] = now
            load.results[jid] = view["result"]
        else:
            load.failed[index] = True
            load.job_errors[jid] = view.get("error") or "failed"


def _poll(port: int, load: _Load, watch_backlog: bool) -> None:
    client = Client(port)
    last_stats = 0.0
    try:
        while True:
            with load.lock:
                if load.sender_finished and not load.waiting:
                    return
                jobs = list(load.waiting)
            progressed = False
            for jid in jobs:
                status, view = client.get(f"/jobs/{jid}")
                now = time.perf_counter()
                with load.lock:
                    if view.get("status") in ("done", "failed"):
                        _finish(load, jid, view, now, load.waiting.pop(jid))
                        progressed = True
                    else:
                        for index in list(load.waiting[jid]):
                            if now - load.due[index] > CLIENT_TIMEOUT:
                                load.failed[index] = True
                                load.waiting[jid].remove(index)
                        if not load.waiting[jid]:
                            del load.waiting[jid]
            if watch_backlog and time.perf_counter() - last_stats > 0.25:
                last_stats = time.perf_counter()
                _, stats = client.get("/stats")
                load.max_backlog = max(load.max_backlog,
                                       stats["queue_depth"]
                                       + stats["in_flight"])
            if not progressed:
                time.sleep(POLL_PAUSE)
    finally:
        client.close()


def _histogram_quantile(series: dict, fraction: float) -> float:
    """Prometheus-style quantile estimate from cumulative buckets."""
    total = series["count"]
    if not total:
        return 0.0
    rank = fraction * total
    lower_bound, lower_count = 0.0, 0
    for bound, count in sorted((float(b), c)
                               for b, c in series["buckets"].items()):
        if count >= rank:
            span = count - lower_count
            return lower_bound + (bound - lower_bound) * (
                (rank - lower_count) / span if span else 0.0)
        lower_bound, lower_count = bound, count
    return lower_bound


def _span_wall(tree: dict) -> float:
    return sum(node["wall_s"] for node in tree["trace"]["spans"])


class ServeGenerated:
    """The serve_generated workload (see the module docstring)."""

    name = "serve_generated"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.count = max(1, int(round(RATE * seconds)))
        self.bodies, self.kinds = _schedule(
            seed, self.count, _fresh_pool(_fresh_count(self.count)))

    def _boot(self, root: str) -> Server:
        """Start a server and wait until ``/healthz`` answers."""
        server = Server(os.path.join(root, "store"), root)
        try:
            server.wait_healthy()
        except BaseException:
            server.stop()
            raise
        return server

    def setup_probe(self) -> None:
        """Boot a server to a healthy ``/healthz``, then stop it."""
        root = scratch_dir("serve-setup-")
        server = None
        try:
            server = self._boot(root)
        finally:
            if server is not None:
                server.stop()
            remove_dir(root)

    # ------------------------------------------------------------------
    def run(self, trace: bool, seconds: float) -> Dict[str, object]:
        root = scratch_dir("serve-")
        server = None
        try:
            server = self._boot(root)
            load = self._drive(server.port, trace)
            traces = {}
            client = Client(server.port)
            try:
                stats = client.get("/stats")[1]
                for jid in sorted(load.results) if trace else ():
                    status, tree = client.get(f"/jobs/{jid}/trace")
                    if status == 200:
                        traces[jid] = tree
            finally:
                client.close()
        finally:
            if server is not None:
                server.stop()
            store_bytes = dir_bytes(os.path.join(root, "store"))
            remove_dir(root)
        return self._summarize(load, stats, traces, store_bytes, trace)

    def _drive(self, port: int, trace: bool) -> _Load:
        load = _Load(self.count)
        start = time.perf_counter() + 0.05
        poller = threading.Thread(target=_poll, args=(port, load, trace),
                                  name="perfbench-poller")
        poller.start()
        try:
            _send_all(port, self.bodies, load, start)
        finally:
            poller.join()
        return load

    # ------------------------------------------------------------------
    def _summarize(self, load: _Load, stats: dict, traces: dict,
                   store_bytes: int, trace: bool) -> Dict[str, object]:
        lateness = [sent - due for sent, due in zip(load.sent, load.due)
                    if sent is not None]
        if max(lateness) > MAX_LATENESS:
            raise BenchError(f"invalid run: the generator fell behind by "
                             f"{max(lateness):.3f} s")
        answered = [done for done in load.done if done is not None]
        span = (max(answered) if answered else time.perf_counter()) \
            - load.due[0]
        latencies, good, failed = [], 0, 0
        for index in range(self.count):
            done = load.done[index]
            if load.failed[index] or done is None:
                failed += 1
                took = CLIENT_TIMEOUT
            else:
                took = done - load.due[index]
                good += took <= SLO_SECONDS
            latencies.append(took)
        # The gated percentiles cover fresh requests: repeats answered
        # from history take a few ms, so a median over every request
        # falls at the edge of that cluster and moved ~30% between runs.
        fresh = [took for took, kind in zip(latencies, self.kinds)
                 if kind == "fresh"]
        replay_s, traced = self._replay(load, trace)
        info = {
            "requests": self.count, "rate_per_s": RATE,
            "distinct_jobs": len(load.results),
            "slo_attainment": good / self.count,
            "slo_limit_s": SLO_SECONDS,
            "generator_lateness_p50_s": percentile(lateness, 0.5),
            "generator_lateness_max_s": max(lateness),
            "replay_s": replay_s,
            "latency_all_p50_s": percentile(latencies, 0.5),
            "latency_all_p90_s": percentile(latencies, 0.9),
        }
        result = {"attempted": self.count, "failed": failed,
                  "end_to_end": {"ops_per_s": good / span,
                                 **latency_metrics(fresh)},
                  "layers": {}, "info": info}
        if trace:
            traced_s, totals = traced
            layers = layer_metrics(totals)
            layers["trace.overhead_frac"] = traced_s / replay_s - 1.0
            waits = [value for key, value in stats["metrics"].items()
                     if key.startswith("repro_queue_wait_seconds")]
            service = [_span_wall(tree) for tree in traces.values()]
            layers.update({
                "serve.queue_wait_p50_s": _histogram_quantile(waits[0], 0.5),
                "serve.queue_wait_p90_s": _histogram_quantile(waits[0], 0.9),
                "serve.service_p50_s": percentile(service, 0.5),
                "serve.dedup_hits": stats["dedup_hits"],
                "serve.history_hits": load.history_hits,
                "serve.max_backlog": load.max_backlog,
                "pipeline.store_bytes": store_bytes,
            })
            result["layers"] = layers
        return result

    def _replay(self, load: _Load, trace: bool):
        """The oracle: every distinct job again, each cold, in this process.

        Each job runs with the engine caches cleared and a fresh artifact
        store, so its result depends on the request alone, as the server
        documents for every finished job.  Returns ``(seconds, None)``,
        or with ``trace`` ``(seconds, (traced seconds, tracer totals))``
        of a second, traced replay.
        """
        from repro import engine
        from repro.pipeline.config import FlowConfig
        from repro.pipeline import jobs
        from repro.pipeline.store import ArtifactStore
        from repro.serve.protocol import job_id, parse_synth_request

        if load.job_errors:
            jid, error = sorted(load.job_errors.items())[0]
            raise BenchError(f"{len(load.job_errors)} server jobs failed; "
                             f"job {jid[:12]}: {error}")
        tasks = {}
        for index, jid in enumerate(load.job):
            if jid is not None and jid in load.results and jid not in tasks:
                task = parse_synth_request(json.loads(self.bodies[index]))
                if job_id(task) != jid:
                    raise BenchError(f"request {index}: server job id "
                                     f"{jid[:12]} is not the task digest")
                tasks[jid] = task

        def unit() -> Unit:
            output = {}
            for jid, task in tasks.items():
                engine.clear_caches()
                root = scratch_dir("replay-")
                try:
                    output[jid] = jobs.run_synth_job(
                        FlowConfig.from_payload(task["config"]),
                        task["stg"], name=task["name"],
                        store=ArtifactStore(root))
                finally:
                    remove_dir(root)
            return Unit(ops=len(output), output=output)

        started = time.perf_counter()
        reference = unit()
        replay_s = time.perf_counter() - started
        differing = [jid for jid, result in reference.output.items()
                     if canonical(result) != canonical(load.results[jid])]
        if differing:
            raise BenchError(
                f"{len(differing)} of {len(tasks)} served results differ "
                f"from a cold in-process run_synth_job (first: job "
                f"{differing[0][:12]}, {tasks[differing[0]]['name']})")
        for jid, result in reference.output.items():
            if result["summary"]["verdict"] == "violating":
                raise BenchError(f"job {jid[:12]}: verdict 'violating'")
        if not trace:
            return replay_s, None
        tracer = Tracer()
        with tracer:
            started = time.perf_counter()
            traced = unit()
            traced_s = time.perf_counter() - started
        if canonical(traced.output) != canonical(reference.output):
            raise BenchError("the traced replay's results differ from the "
                             "untraced replay's")
        dump_trace(tracer, f"{self.name}-seed{self.seed}")
        return replay_s, (traced_s, tracer.totals(traced_s))
