"""Seeded inputs of the three workloads, made apart from the program.

Tuples are plain ``(start, end, payload)`` triples with closed
intervals and integer payloads; only :func:`to_relation` turns them into
the program's types.  Every stream is drawn from its own
``random.Random`` seeded with ``"<workload>:<seed>:<stream>"``, so the
same ``--seed`` gives the same inputs on every machine and Python 3
version, and streams do not shift when another stream changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

Triple = Tuple[int, int, int]

LONG_DOMAIN = (1, 20_000)
SHORT_DOMAIN = (1, 1_000_000)

#: Inserts and deletes per side in one write batch.  Small batches keep
#: the publish latency from being a sum of journal fsyncs, whose time on
#: a shared disk swings by several times from second to second.
BATCH_INSERTS = 10
BATCH_DELETES = 10


@dataclass(frozen=True)
class Spec:
    """The make-up of one workload (see README.md)."""

    name: str
    op: str  # the read op: "join" or "lookup"
    domain: Tuple[int, int]
    cardinality: int  # tuples per side
    long_fraction: float  # share of long-lived tuples
    long_max: int  # their maximal duration in ticks
    short_max: int  # maximal duration of the other tuples
    window_widths: Tuple[int, int]  # lookup window width range
    include_pairs: bool
    writer_period_s: float  # one write batch is due every period


SPECS: Dict[str, Spec] = {
    "longlived-join": Spec(
        name="longlived-join",
        op="join",
        domain=LONG_DOMAIN,
        cardinality=1800,
        long_fraction=0.3,
        long_max=1600,  # 8% of |U|
        short_max=2,
        window_widths=(0, 0),
        include_pairs=False,
        writer_period_s=2.0,
    ),
    "longlived-lookup": Spec(
        name="longlived-lookup",
        op="lookup",
        domain=LONG_DOMAIN,
        cardinality=1800,
        long_fraction=0.3,
        long_max=1600,
        short_max=2,
        window_widths=(1, 100),
        include_pairs=True,
        writer_period_s=2.0,
    ),
    "shortlived-maintain": Spec(
        name="shortlived-maintain",
        op="lookup",
        domain=SHORT_DOMAIN,
        cardinality=20_000,
        long_fraction=0.0,
        long_max=50,
        short_max=50,
        window_widths=(1000, 1000),
        include_pairs=True,
        writer_period_s=3.0,
    ),
}


def _rng(spec: Spec, seed: int, stream: str) -> random.Random:
    return random.Random(f"{spec.name}:{seed}:{stream}")


def _draw(rng: random.Random, spec: Spec, long_lived: bool, payload: int,
          low: int) -> Triple:
    high = spec.domain[1]
    start = rng.randint(low, high)
    duration = rng.randint(1, spec.long_max if long_lived else spec.short_max)
    return (start, min(start + duration - 1, high), payload)


def side_range(spec: Spec, side: str) -> Tuple[int, int]:
    """The time range a side spans: the outer side spans the domain, the
    inner side starts one mean start gap later."""
    low, high = spec.domain
    if side == "inner":
        low += (high - low + 1) // spec.cardinality
    return low, high


def relation(spec: Spec, seed: int, side: str) -> List[Triple]:
    """One side of the initial index, payloads ``0..n-1``.

    Its first short-lived tuple starts on the first tick of
    :func:`side_range` and its second ends on the last, so OIP lays the
    same granule grids over the two sides whatever the seed.
    """
    rng = _rng(spec, seed, side)
    low, high = side_range(spec, side)
    long_count = round(spec.cardinality * spec.long_fraction)
    tuples = [
        _draw(rng, spec, index < long_count, index, low)
        for index in range(spec.cardinality)
    ]
    first, second = long_count, long_count + 1
    start, end, payload = tuples[first]
    tuples[first] = (low, low + end - start, payload)
    start, end, payload = tuples[second]
    tuples[second] = (high - (end - start), high, payload)
    rng.shuffle(tuples)
    return tuples


def windows(spec: Spec, seed: int, count: int) -> List[Tuple[int, int]]:
    """Lookup windows, each inside the domain."""
    rng = _rng(spec, seed, "windows")
    low, high = spec.domain
    out = []
    for _ in range(count):
        width = rng.randint(*spec.window_widths)
        start = rng.randint(low, high - width + 1)
        out.append((start, start + width - 1))
    return out


class WriteStream:
    """Seeded insert/delete batches against a mirror of both sides.

    Inserted tuples follow the workload's duration mix and get payloads
    above every existing one; deletes pick existing tuples.  The mirror
    is the benchmark's own view of what each generation holds.
    """

    def __init__(self, spec: Spec, seed: int, sides: Dict[str, List[Triple]]):
        self.spec = spec
        self._rng = _rng(spec, seed, "writes")
        self.sides = {side: list(tuples) for side, tuples in sides.items()}
        self._next_payload = {
            side: max(payload for _, _, payload in tuples) + 1
            for side, tuples in sides.items()
        }

    def next_batch(self) -> List[Tuple[str, str, Triple]]:
        """``[(op, side, triple), ...]``, already applied to the mirror."""
        rng = self._rng
        spec = self.spec
        batch = []
        for side in ("outer", "inner"):
            current = self.sides[side]
            low = side_range(spec, side)[0]
            for _ in range(BATCH_INSERTS):
                long_lived = rng.random() < spec.long_fraction
                triple = _draw(rng, spec, long_lived, self._next_payload[side], low)
                self._next_payload[side] += 1
                current.append(triple)
                batch.append(("insert", side, triple))
            for _ in range(BATCH_DELETES):
                position = rng.randrange(len(current))
                current[position], current[-1] = current[-1], current[position]
                batch.append(("delete", side, current.pop()))
        return batch

    def state(self) -> Tuple[Tuple[Triple, ...], Tuple[Triple, ...]]:
        return tuple(self.sides["outer"]), tuple(self.sides["inner"])


def to_relation(tuples: List[Triple], name: str):
    """The program's ``TemporalRelation`` for *tuples*."""
    from repro.core.relation import TemporalRelation, TemporalTuple

    return TemporalRelation(
        [TemporalTuple(start, end, payload) for start, end, payload in tuples],
        name=name,
    )
