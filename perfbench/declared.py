"""What the benchmark measures: its workloads and its metrics.

``BENCHMARK.json`` at the repository root declares the same names,
units and directions; ``tests/test_declared.py`` keeps the two in step,
and :func:`check_metrics` refuses to print a metric set that differs
from the declaration.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: name -> (make-up, why) — the ``why`` is repeated in BENCHMARK.json.
WORKLOADS: Dict[str, str] = {
    "longlived-join": (
        "Figure 8 mixture, 30% long-lived tuples: quadratic result, so "
        "probe, pair emission and the response fingerprint dominate"
    ),
    "longlived-lookup": (
        "same long-lived index, narrow windows: lookup runs the whole join "
        "then filters, so pushdown and JSON encoding show here"
    ),
    "shortlived-maintain": (
        "20k short-lived tuples per side, k~240, decode cache overflowed; "
        "lookups beside fsynced write batches, compact and refresh"
    ),
}

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "qps": ("queries/s", "higher"),
    "query_p50_ms": ("ms", "lower"),
    "publish_p50_ms": ("ms", "lower"),
    "server_peak_rss_mb": ("MiB", "lower"),
    "snapshot_bytes_per_tuple": ("bytes", "lower"),
}

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "snapshot.save_ms": ("ms", "lower"),
    "snapshot.load_ms": ("ms", "lower"),
    "snapshot.fsck_ms": ("ms", "lower"),
    "maintain.insert_ms": ("ms", "lower"),
    "maintain.compact_ms": ("ms", "lower"),
    "service.refresh_ms": ("ms", "lower"),
    "snapshot.restore_ms": ("ms", "lower"),
    "join.oipjoin_ms": ("ms", "lower"),
    "join.index_load_ms": ("ms", "lower"),
    "join.probe_ms": ("ms", "lower"),
    "join.result_pairs": ("count", "lower"),
    "join.cpu_comparisons": ("count", "lower"),
    "join.false_hits": ("count", "lower"),
    "join.partition_accesses": ("count", "lower"),
    "join.false_hit_ratio": ("ratio", "lower"),
    "kernels.decode_cache_hit_ratio": ("ratio", "higher"),
    "service.summarize_ms": ("ms", "lower"),
    "service.unattributed_ms": ("ms", "lower"),
    "service.query_ms": ("ms", "lower"),
    "lookup.useful_ratio": ("ratio", "higher"),
    "protocol.encode_ms": ("ms", "lower"),
    "wire.overhead_ms": ("ms", "lower"),
    "server.cpu_ms_per_query": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def check_metrics(values: Dict[str, float], trace: bool) -> Dict[str, dict]:
    """The ``metrics`` object of the result line; raises ``ValueError``
    when *values* names a metric that is not declared or misses one."""
    declared = PER_LAYER if trace else END_TO_END
    missing = sorted(set(declared) - set(values))
    extra = sorted(set(values) - set(declared))
    if missing or extra:
        raise ValueError(
            f"metric set differs from the declaration: missing {missing}, "
            f"undeclared {extra}"
        )
    return {
        name: {"value": float(values[name]), "unit": declared[name][0]}
        for name in declared
    }
