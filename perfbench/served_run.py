"""The served run: what a client of ``python -m repro serve`` waits for.

One run sets the server up several times (write the snapshot, start
``serve``, get the first answer), then drives the last server in a
closed loop from one connection for the run's seconds.  Beside the
reads, a writer thread publishes a batch on a fixed schedule: inserts
and deletes through ``MaintainedIndex`` (fsync on), ``compact()``, and a
wire ``refresh`` from a second connection.  Every answer is kept and
checked against :mod:`reference_join` once the clock has stopped.
"""

from __future__ import annotations

import os
import shutil
import statistics
import itertools
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

import workload_inputs
from reference_join import Reference, check_response
from serve_process import ServeProcess

SETUPS = 3
MAX_PAIRS = 1000
WINDOW_POOL = 4096


class Ops:
    """Attempted and failed operations, per op type."""

    def __init__(self) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self._lock = threading.Lock()

    def record(self, op: str, ok: bool) -> None:
        with self._lock:
            self.attempted[op] += 1
            if not ok:
                self.failed[op] += 1


class ServedRun:
    def __init__(
        self,
        spec: workload_inputs.Spec,
        seed: int,
        seconds: float,
        workdir: str,
        src_dir: str,
        setups: int = SETUPS,
        server_cpus: Optional[List[int]] = None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.src_dir = src_dir
        self.setups = setups
        self.server_cpus = server_cpus
        self.ops = Ops()
        self.problems: List[str] = []
        self.notes: List[str] = []
        self.reference = Reference()
        self.outer = workload_inputs.relation(spec, seed, "outer")
        self.inner = workload_inputs.relation(spec, seed, "inner")
        self.windows = workload_inputs.windows(spec, seed, WINDOW_POOL)
        #: ``(window, latency_ms, response)``; the latency is ``None`` for
        #: reads outside the timed loop.
        self.reads: List[Tuple[Optional[Tuple[int, int]], Optional[float], dict]] = []
        self.publishes: List[Dict[str, float]] = []
        self.server: Optional[ServeProcess] = None
        self._clients: List[Any] = []
        self._stop = threading.Event()

    # -- reads ---------------------------------------------------------------

    def _window(self, index: int) -> Optional[Tuple[int, int]]:
        if self.spec.op == "join":
            return None
        return self.windows[index % len(self.windows)]

    def _read(self, client: Any, window: Optional[Tuple[int, int]]) -> Optional[dict]:
        """One read; ``None`` when the server answered with an error."""
        from repro.service.errors import ServiceError

        try:
            if window is None:
                response = client.join()
            else:
                response = client.lookup(
                    window,
                    include_pairs=self.spec.include_pairs,
                    max_pairs=MAX_PAIRS,
                )
        except ServiceError as error:
            self.ops.record(self.spec.op, False)
            self.notes.append(f"{self.spec.op} failed: {error}")
            return None
        self.ops.record(self.spec.op, True)
        return response

    # -- set-up --------------------------------------------------------------

    def _setup_once(self, index: int, outer_rel: Any, inner_rel: Any):
        from repro.service.client import ServiceClient
        from repro.storage.snapshot import save_index

        directory = os.path.join(self.workdir, f"setup{index}")
        os.makedirs(directory)
        path = os.path.join(directory, "index.oip")
        started = time.perf_counter()
        info = save_index(path, outer_rel, inner_rel)
        server = ServeProcess(
            path, self.src_dir, os.path.join(directory, "serve.log"), self.server_cpus
        )
        self.server = server
        client = ServiceClient("127.0.0.1", server.wait_ready(), timeout_s=120.0)
        self._clients.append(client)
        window = self._window(0)
        response = self._read(client, window)
        elapsed = time.perf_counter() - started
        if response is None:
            raise RuntimeError(f"the first {self.spec.op} failed: {self.notes[-1]}")
        self.reference.add(info["generation"], self.outer, self.inner)
        self.reads.append((window, None, response))
        return path, info, client, elapsed

    def _teardown(self, client: Any) -> None:
        client.close()
        self._clients.remove(client)
        self.server.stop()
        self.server = None

    # -- writes --------------------------------------------------------------

    def _publish(self, index: Any, stream: Any, client: Any, due: float) -> None:
        from repro.service.errors import ServiceError

        started = time.perf_counter()
        batch = stream.next_batch()
        for op, side, (start, end, payload) in batch:
            try:
                if op == "insert":
                    index.insert(side, start, end, payload)
                elif not index.delete(side, start, end, payload):
                    self.problems.append(f"delete of {side} {(start, end, payload)} found nothing")
            except (OSError, ValueError) as error:
                self.ops.record(op, False)
                self.notes.append(f"{op} failed: {error}")
                continue
            self.ops.record(op, True)
        info = index.compact()
        self.ops.record("compact", True)
        generation = info["generation"]
        self.reference.add(generation, *stream.state())
        try:
            ack = client.refresh()
        except ServiceError as error:
            self.ops.record("refresh", False)
            self.notes.append(f"refresh failed: {error}")
            return
        acked = time.perf_counter()
        self.ops.record("refresh", True)
        if ack.get("generation") != generation or not ack.get("swapped"):
            self.problems.append(
                f"refresh ack {ack.get('generation')} does not name generation {generation}"
            )
        self.publishes.append(
            {
                "lateness_ms": (started - due) * 1e3,
                "publish_ms": (acked - due) * 1e3,
                "refresh_ms": float(ack["elapsed_ms"]),
            }
        )

    def _writer(self, path: str, port: int, first_due: float, stop_at: float) -> None:
        """Publish batches on a fixed schedule from *first_due*."""
        from repro.service.client import ServiceClient
        from repro.storage.snapshot import MaintainedIndex

        index = MaintainedIndex.open(path)
        stream = workload_inputs.WriteStream(
            self.spec, self.seed, {"outer": self.outer, "inner": self.inner}
        )
        period = self.spec.writer_period_s
        with ServiceClient("127.0.0.1", port, timeout_s=120.0) as client:
            for number in itertools.count():
                due = first_due + number * period
                if due >= stop_at or self._stop.wait(max(0.0, due - time.perf_counter())):
                    break
                self._publish(index, stream, client, due)

    # -- the run -------------------------------------------------------------

    def run(self) -> None:
        outer_rel = workload_inputs.to_relation(self.outer, "outer")
        inner_rel = workload_inputs.to_relation(self.inner, "inner")
        self.setup_s: List[float] = []
        for index in range(self.setups):
            path, info, client, elapsed = self._setup_once(index, outer_rel, inner_rel)
            self.setup_s.append(elapsed)
            if index < self.setups - 1:
                self._teardown(client)
                shutil.rmtree(os.path.dirname(path))
        self.snapshot_bytes_per_tuple = info["bytes"] / (len(self.outer) + len(self.inner))
        self.index_info = info
        server = self.server

        writer_errors: List[BaseException] = []
        cpu_before = server.cpu_seconds()
        started = time.perf_counter()
        stop_at = started + self.seconds

        def write() -> None:
            try:
                first_due = started + min(self.spec.writer_period_s, self.seconds) / 2
                self._writer(path, server.port, first_due, stop_at)
            except BaseException as error:  # raised again after the join below
                writer_errors.append(error)

        writer = threading.Thread(target=write, name="perfbench-writer")
        writer.start()
        latencies: List[float] = []
        number = 1
        try:
            while True:
                window = self._window(number)
                sent = time.perf_counter()
                response = self._read(client, window)
                done = time.perf_counter()
                if response is not None:
                    latencies.append((done - sent) * 1e3)
                    self.reads.append((window, (done - sent) * 1e3, response))
                number += 1
                if done >= stop_at:
                    break
        except BaseException:
            self._stop.set()  # an interrupted run publishes nothing more
            raise
        finally:
            writer.join()
        self.read_elapsed_s = done - started
        self.server_cpu_s = server.cpu_seconds() - cpu_before
        self.latencies = latencies
        if writer_errors:
            raise writer_errors[0]
        self.peak_rss_mib = server.peak_rss_mib()
        self._teardown(client)

    def close(self) -> None:
        for client in list(self._clients):
            try:
                client.close()
            except OSError:
                pass
        self._clients.clear()
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- checks and figures --------------------------------------------------

    def check(self) -> Dict[str, int]:
        """Check every kept answer; returns how many fingerprints were
        checked and skipped."""
        counts = Counter()
        last_generation = -1
        for window, _, response in self.reads:
            problems, checked = check_response(response, self.reference, window, MAX_PAIRS)
            counts["fingerprint_checked" if checked else "fingerprint_skipped"] += 1
            generation = response.get("generation", -1)
            if generation < last_generation:
                problems.append(
                    f"generation went back from {last_generation} to {generation}"
                )
            last_generation = max(last_generation, generation)
            self.problems.extend(problems)
        if counts["fingerprint_skipped"]:
            self.notes.append(
                f"{counts['fingerprint_skipped']} responses carry another "
                "fingerprint scheme: counts and returned pairs checked only"
            )
        return counts

    def end_to_end(self) -> Dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "qps": len(self.latencies) / self.read_elapsed_s,
            "query_p50_ms": statistics.median(self.latencies),
            "publish_p50_ms": statistics.median(p["publish_ms"] for p in self.publishes),
            "server_peak_rss_mb": self.peak_rss_mib,
            "snapshot_bytes_per_tuple": self.snapshot_bytes_per_tuple,
        }

    def served_layers(self) -> Dict[str, float]:
        """The per-layer figures that come from the served run."""
        timed = [(latency, response) for _, latency, response in self.reads if latency is not None]
        counters = [response["counters"] for _, response in timed]

        def median_counter(name: str) -> float:
            return statistics.median(c[name] for c in counters)

        false_hits = median_counter("false_hits")
        results = median_counter("result_tuples")
        return {
            "service.refresh_ms": statistics.median(p["refresh_ms"] for p in self.publishes),
            "wire.overhead_ms": statistics.median(
                latency - response["service_ms"] for latency, response in timed
            ),
            "server.cpu_ms_per_query": self.server_cpu_s * 1e3 / len(self.latencies),
            "join.result_pairs": results,
            "join.cpu_comparisons": median_counter("cpu_comparisons"),
            "join.false_hits": false_hits,
            "join.partition_accesses": median_counter("partition_accesses"),
            "join.false_hit_ratio": false_hits / (false_hits + results),
            "lookup.useful_ratio": statistics.median(
                response["pairs"] / max(1, c["result_tuples"])
                for (_, response), c in zip(timed, counters)
            ),
        }
