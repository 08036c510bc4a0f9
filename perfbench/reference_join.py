"""The benchmark's own overlap join and response checks.

A forward-scan plane sweep over start-sorted triples computes every
overlapping ``(outer, inner)`` pair exactly once; nothing here imports
the program.  A lookup window ``[ts, te]`` selects a pair when all three
intervals share a point (the service's window rule).  Closed intervals
on a line meet pairwise only if they share a point, so the windowed
join is the sweep over the tuples of each side that meet the window.

The fingerprint is the documented response fingerprint: the sum, modulo
2**48, of the CRC32 of ``"{s}|{e}|{payload!r}|{s}|{e}|{payload!r}"``
over every pair.
"""

from __future__ import annotations

import zlib
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Triple = Tuple[int, int, int]
Pair = Tuple[Triple, Triple]

FINGERPRINT_MASK = 0xFFFFFFFFFFFF


def sweep_join(outer: Iterable[Triple], inner: Iterable[Triple]) -> List[Pair]:
    """Every overlapping ``(outer, inner)`` pair, each once."""
    left = sorted(outer)
    right = sorted(inner)
    pairs: List[Pair] = []
    emit = pairs.append
    i = j = 0
    n_left, n_right = len(left), len(right)
    while i < n_left and j < n_right:
        if left[i][0] <= right[j][0]:
            tup = left[i]
            end = tup[1]
            k = j
            while k < n_right and right[k][0] <= end:
                emit((tup, right[k]))
                k += 1
            i += 1
        else:
            tup = right[j]
            end = tup[1]
            k = i
            while k < n_left and left[k][0] <= end:
                emit((left[k], tup))
                k += 1
            j += 1
    return pairs


def in_window(tuples: Iterable[Triple], window: Tuple[int, int]) -> List[Triple]:
    ts, te = window
    return [tup for tup in tuples if tup[0] <= te and tup[1] >= ts]


def pair_crc(pair: Pair) -> int:
    (s1, e1, p1), (s2, e2, p2) = pair
    return zlib.crc32(f"{s1}|{e1}|{p1!r}|{s2}|{e2}|{p2!r}".encode("utf-8"))


def fingerprint(pairs: Iterable[Pair]) -> int:
    return sum(pair_crc(pair) for pair in pairs) & FINGERPRINT_MASK


class Expected:
    """The reference answer to one read: count, fingerprint, pair bag."""

    def __init__(self, pairs: List[Pair]):
        self.count = len(pairs)
        self.fingerprint = fingerprint(pairs)
        self._pairs = pairs
        self._bag: Optional[Counter] = None

    def bag(self) -> Counter:
        if self._bag is None:
            self._bag = Counter(self._pairs)
        return self._bag


class Reference:
    """Reference answers for the generations a run serves.

    ``generations`` maps a generation id to its ``(outer, inner)``
    triples.  The full join of the last generation asked for is kept,
    since reads arrive in generation order.
    """

    def __init__(self) -> None:
        self.generations: Dict[int, Tuple[Sequence[Triple], Sequence[Triple]]] = {}
        self._join: Tuple[Optional[int], Optional[Expected]] = (None, None)

    def add(self, generation: int, outer: Sequence[Triple], inner: Sequence[Triple]) -> None:
        self.generations[generation] = (outer, inner)

    def expected(self, generation: int, window: Optional[Tuple[int, int]]) -> Expected:
        outer, inner = self.generations[generation]
        if window is not None:
            return Expected(sweep_join(in_window(outer, window), in_window(inner, window)))
        if self._join[0] != generation:
            self._join = (generation, Expected(sweep_join(outer, inner)))
        return self._join[1]


def _meets(first: Sequence[int], second: Sequence[int]) -> bool:
    return first[0] <= second[1] and second[0] <= first[1]


def check_response(
    response: dict,
    reference: Reference,
    window: Optional[Tuple[int, int]],
    max_pairs: int,
) -> Tuple[List[str], bool]:
    """Problems found in one read response, and whether its fingerprint
    was checked (it is not when the response names another scheme)."""
    problems: List[str] = []
    generation = response.get("generation")
    if generation not in reference.generations:
        return [f"response names unknown generation {generation!r}"], False
    expected = reference.expected(generation, window)
    if response.get("completed") is not True:
        problems.append("completed is not true")
    if response.get("pairs") != expected.count:
        problems.append(
            f"pairs {response.get('pairs')} != reference {expected.count} "
            f"(generation {generation}, window {window})"
        )
    # A ``fingerprint_*`` field (a version or scheme name) announces a
    # fingerprint other than the documented one.
    fingerprint_checked = not any(key.startswith("fingerprint_") for key in response)
    if fingerprint_checked and response.get("fingerprint") != expected.fingerprint:
        problems.append(
            f"fingerprint {response.get('fingerprint')} != reference "
            f"{expected.fingerprint} (generation {generation}, window {window})"
        )
    if "results" in response:
        results = response["results"]
        if len(results) != min(expected.count, max_pairs):
            problems.append(
                f"{len(results)} pairs returned, expected "
                f"{min(expected.count, max_pairs)}"
            )
        if bool(response.get("results_truncated")) != (expected.count > max_pairs):
            problems.append("results_truncated disagrees with the count")
        returned = Counter()
        for outer, inner in results:
            if not _meets(outer, inner):
                problems.append(f"returned pair {outer}, {inner} does not overlap")
            if window is not None and not (_meets(outer, window) and _meets(inner, window)):
                problems.append(f"returned pair {outer}, {inner} misses {window}")
            returned[(tuple(outer), tuple(inner))] += 1
        if returned - expected.bag():
            problems.append("returned pairs that the reference does not hold")
    return problems, fingerprint_checked
