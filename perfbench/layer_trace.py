"""The traced replay: each layer's public calls, timed in-process.

The replay runs the workload's reads against an in-process
``JoinService`` and times, from the benchmark's side, the calls into
each layer: ``save_index``/``fsck_index``/``MaintainedIndex``
(``storage.snapshot``), ``ServingGeneration.load`` and calling a pinned
generation (``service.snapshots``), ``OIPJoin.join`` with its run-report
phase table (``core.join``), the decode-cache counters
(``core.kernels``), ``summarize_result`` (``service.service``) and
``encode_message`` (``service.protocol``).  The program itself records
nothing new.

A query's time splits without remainder into restore, the join's own
time (the ``OIPJoin.join`` call minus the restore inside it), summarize
and the unattributed rest; the split of the median query is reported.
Traced and untraced queries alternate, and the ratio of their medians
is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import workload_inputs
from reference_join import Reference, check_response

SAVES = 3
QUERIES = 5
BATCHES = 3
MAX_PAIRS = 1000


class _Recorder:
    """Times of the wrapped calls made during one query."""

    def __init__(self) -> None:
        self.restore_s = 0.0
        self.join_s = 0.0
        self.summarize_s = 0.0
        self.result: Any = None


@contextlib.contextmanager
def _wrapped(service: Any, recorder: _Recorder) -> Iterator[None]:
    """Time the layer calls of queries made inside the block."""
    from repro.core.join import OIPJoin
    from repro.service import service as service_module
    from repro.service.snapshots import ServingGeneration

    clock = time.perf_counter
    restore = ServingGeneration.__call__
    join = OIPJoin.join
    own_join = OIPJoin.__dict__.get("join")
    summarize = service_module.summarize_result

    def timed_restore(self: Any, *args: Any, **kwargs: Any) -> Any:
        started = clock()
        try:
            return restore(self, *args, **kwargs)
        finally:
            recorder.restore_s += clock() - started

    def timed_join(self: Any, *args: Any, **kwargs: Any) -> Any:
        started = clock()
        try:
            recorder.result = join(self, *args, **kwargs)
            return recorder.result
        finally:
            recorder.join_s += clock() - started

    def timed_summarize(*args: Any, **kwargs: Any) -> Any:
        started = clock()
        try:
            return summarize(*args, **kwargs)
        finally:
            recorder.summarize_s += clock() - started

    ServingGeneration.__call__ = timed_restore
    OIPJoin.join = timed_join
    service_module.summarize_result = timed_summarize
    service.set_join_option("collect_report", True)
    try:
        yield
    finally:
        service.clear_join_option("collect_report")
        ServingGeneration.__call__ = restore
        if own_join is None:
            del OIPJoin.join  # back to the inherited method
        else:
            OIPJoin.join = own_join
        service_module.summarize_result = summarize


def _phase_ms(report: Dict[str, Any], name: str) -> float:
    return sum(p["duration_ms"] for p in report["phases"] if p["name"] == name)


class LayerReplay:
    def __init__(self, spec: workload_inputs.Spec, seed: int, workdir: str, ops: Any) -> None:
        self.spec = spec
        self.seed = seed
        self.workdir = os.path.join(workdir, "replay")
        os.makedirs(self.workdir)
        self.ops = ops
        self.problems: List[str] = []
        self.outer = workload_inputs.relation(spec, seed, "outer")
        self.inner = workload_inputs.relation(spec, seed, "inner")
        self.windows = workload_inputs.windows(spec, seed, QUERIES + 1)
        self.reference = Reference()
        self.figures: Dict[str, float] = {}
        self.ledger: Dict[str, float] = {}

    def _timed(self, call: Any, *args: Any, **kwargs: Any) -> Tuple[float, Any]:
        started = time.perf_counter()
        value = call(*args, **kwargs)
        return (time.perf_counter() - started) * 1e3, value

    def run(self) -> Dict[str, float]:
        from repro.storage.snapshot import save_index

        outer_rel = workload_inputs.to_relation(self.outer, "outer")
        inner_rel = workload_inputs.to_relation(self.inner, "inner")
        saves = []
        for number in range(SAVES):
            path = os.path.join(self.workdir, f"save{number}.oip")
            elapsed, info = self._timed(save_index, path, outer_rel, inner_rel)
            saves.append(elapsed)
        self.figures["snapshot.save_ms"] = statistics.median(saves)
        self.reference.add(info["generation"], self.outer, self.inner)
        self._queries(path)
        self._maintain(path)
        return self.figures

    def _query(self, service: Any, window: Optional[Tuple[int, int]]) -> Tuple[float, dict]:
        from repro.service.errors import ServiceError

        op = self.spec.op
        started = time.perf_counter()
        try:
            body = service.query(
                op,
                window=window,
                include_pairs=self.spec.include_pairs,
                max_pairs=MAX_PAIRS,
            )
        except ServiceError as error:
            self.ops.record(op, False)
            raise RuntimeError(f"in-process {op} failed: {error}") from error
        elapsed = (time.perf_counter() - started) * 1e3
        self.ops.record(op, True)
        problems, _ = check_response(body, self.reference, window, MAX_PAIRS)
        self.problems.extend(problems)
        return elapsed, body

    def _queries(self, path: str) -> None:
        from repro.service import JoinService
        from repro.service.protocol import encode_message

        window_of = (lambda i: None) if self.spec.op == "join" else (lambda i: self.windows[i])
        service = JoinService(path, result_cache_size=0)
        service.start()
        try:
            self._query(service, window_of(QUERIES))  # warm-up
            untraced: List[float] = []
            traced: List[Tuple[float, _Recorder, float]] = []
            for number in range(QUERIES):
                untraced.append(self._query(service, window_of(number))[0])
                recorder = _Recorder()
                with _wrapped(service, recorder):
                    elapsed, body = self._query(service, window_of(number))
                encode_ms, _ = self._timed(encode_message, {"id": number, "ok": True, **body})
                traced.append((elapsed, recorder, encode_ms))
        finally:
            service.drain(timeout_s=5.0)
        traced.sort(key=lambda item: item[0])
        total_ms, recorder, _ = traced[len(traced) // 2]
        restore_ms = recorder.restore_s * 1e3
        join_ms = recorder.join_s * 1e3 - restore_ms
        summarize_ms = recorder.summarize_s * 1e3
        report = recorder.result.report
        cache = recorder.result.details.get("kernel_cache") or {}
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        untraced_ms = statistics.median(untraced)
        self.ledger = {
            "query_ms": total_ms,
            "untraced_query_ms": untraced_ms,
            "restore_ms": restore_ms,
            "oipjoin_ms": join_ms,
            "summarize_ms": summarize_ms,
            "unattributed_ms": total_ms - restore_ms - join_ms - summarize_ms,
        }
        self.figures.update(
            {
                "snapshot.restore_ms": restore_ms,
                "join.oipjoin_ms": join_ms,
                "join.index_load_ms": _phase_ms(report, "index.load"),
                "join.probe_ms": _phase_ms(report, "probe"),
                "kernels.decode_cache_hit_ratio": (
                    cache.get("hits", 0) / lookups if lookups else 0.0
                ),
                "service.summarize_ms": summarize_ms,
                "service.unattributed_ms": self.ledger["unattributed_ms"],
                "service.query_ms": total_ms,
                "protocol.encode_ms": statistics.median(item[2] for item in traced),
                "trace.overhead_ratio": total_ms / untraced_ms - 1.0,
            }
        )

    def _maintain(self, path: str) -> None:
        """Write batches, compact, then fsck and load each new generation
        the way a refresh does."""
        from repro.service.snapshots import ServingGeneration
        from repro.storage.snapshot import MaintainedIndex, fsck_index

        index = MaintainedIndex.open(path)
        stream = workload_inputs.WriteStream(
            self.spec, self.seed, {"outer": self.outer, "inner": self.inner}
        )
        inserts, compacts, fscks, loads = [], [], [], []
        for _ in range(BATCHES):
            batch = stream.next_batch()
            started = time.perf_counter()
            for op, side, (start, end, payload) in batch:
                if op == "insert":
                    index.insert(side, start, end, payload)
                elif not index.delete(side, start, end, payload):
                    self.problems.append(f"delete of {side} {(start, end, payload)} found nothing")
                self.ops.record(op, True)
            inserts.append((time.perf_counter() - started) * 1e3)
            elapsed, info = self._timed(index.compact)
            compacts.append(elapsed)
            self.ops.record("compact", True)
            elapsed, verdict = self._timed(fsck_index, path, repair=True)
            fscks.append(elapsed)
            if not verdict["loadable"]:
                self.problems.append(f"fsck rejects generation {info['generation']}")
            elapsed, generation = self._timed(ServingGeneration.load, path)
            loads.append(elapsed)
            if generation.generation != info["generation"]:
                self.problems.append(
                    f"loaded generation {generation.generation}, compacted {info['generation']}"
                )
        self.figures.update(
            {
                "maintain.insert_ms": statistics.median(inserts),
                "maintain.compact_ms": statistics.median(compacts),
                "snapshot.fsck_ms": statistics.median(fscks),
                "snapshot.load_ms": statistics.median(loads),
            }
        )
