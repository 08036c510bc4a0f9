"""The reference join against a brute-force nested loop, and the
response checks against answers of the program itself."""

import random
import zlib

import pytest

import reference_join as rj
import workload_inputs


def brute(outer, inner, window=None):
    pairs = []
    for o in outer:
        for i in inner:
            low = max(o[0], i[0], window[0] if window else o[0])
            high = min(o[1], i[1], window[1] if window else o[1])
            if low <= high:
                pairs.append((o, i))
    return pairs


def brute_fingerprint(pairs):
    total = 0
    for (s1, e1, p1), (s2, e2, p2) in pairs:
        key = f"{s1}|{e1}|{p1!r}|{s2}|{e2}|{p2!r}"
        total = (total + zlib.crc32(key.encode("utf-8"))) & 0xFFFFFFFFFFFF
    return total


def small(rng, n, domain=30, longest=6, base=0):
    out = []
    for payload in range(base, base + n):
        start = rng.randint(1, domain)
        out.append((start, min(domain, start + rng.randint(1, longest) - 1), payload))
    return out


def windows(domain=30):
    yield None
    yield (1, domain)  # the whole domain
    yield (1, 1)  # single tick at the lower edge
    yield (domain, domain)  # single tick at the upper edge
    yield (1, 4)
    yield (domain - 3, domain)
    for tick in (7, 15, 22):
        yield (tick, tick)


@pytest.mark.parametrize("seed", range(25))
def test_sweep_matches_nested_loop(seed):
    rng = random.Random(seed)
    outer = small(rng, rng.randint(0, 25))
    inner = small(rng, rng.randint(0, 25), base=100)
    for window in windows():
        if window is None:
            got = rj.sweep_join(outer, inner)
        else:
            got = rj.sweep_join(rj.in_window(outer, window), rj.in_window(inner, window))
        want = brute(outer, inner, window)
        assert sorted(got) == sorted(want), window
        assert rj.fingerprint(got) == brute_fingerprint(want)


def test_touching_endpoints_and_equal_starts():
    outer = [(1, 5, 0), (5, 9, 1), (10, 10, 2), (3, 3, 3)]
    inner = [(5, 5, 10), (6, 9, 11), (1, 4, 12), (10, 12, 13), (3, 3, 14)]
    got = sorted(rj.sweep_join(outer, inner))
    assert got == sorted(brute(outer, inner))
    assert ((1, 5, 0), (5, 5, 10)) in got  # closed intervals touch at 5
    assert ((10, 10, 2), (10, 12, 13)) in got
    assert ((3, 3, 3), (3, 3, 14)) in got
    assert ((5, 9, 1), (1, 4, 12)) not in got
    windowed = rj.sweep_join(rj.in_window(outer, (5, 5)), rj.in_window(inner, (5, 5)))
    assert sorted(windowed) == sorted(brute(outer, inner, (5, 5)))


def test_inputs_repeat_per_seed_and_differ_across_seeds():
    spec = workload_inputs.SPECS["longlived-join"]
    first = workload_inputs.relation(spec, 3, "outer")
    assert first == workload_inputs.relation(spec, 3, "outer")
    assert first != workload_inputs.relation(spec, 4, "outer")
    assert first != workload_inputs.relation(spec, 3, "inner")
    long_lived = sum(1 for s, e, _ in first if e - s + 1 > spec.short_max)
    assert 0.25 < long_lived / len(first) <= 0.3
    low, high = spec.domain
    assert all(low <= s <= e <= high for s, e, _ in first)


def test_write_stream_mirror_follows_its_batches():
    spec = workload_inputs.SPECS["shortlived-maintain"]
    sides = {
        side: workload_inputs.relation(spec, 1, side)[:300] for side in ("outer", "inner")
    }
    stream = workload_inputs.WriteStream(spec, 1, sides)
    mirror = {side: list(tuples) for side, tuples in sides.items()}
    for _ in range(3):
        for op, side, triple in stream.next_batch():
            if op == "insert":
                mirror[side].append(triple)
            else:
                mirror[side].remove(triple)
    outer, inner = stream.state()
    assert sorted(outer) == sorted(mirror["outer"])
    assert sorted(inner) == sorted(mirror["inner"])
    assert len(outer) == 300  # as many deletes as inserts


def test_reference_agrees_with_the_program(tmp_path):
    """The documented fingerprint is the one the service computes."""
    from repro.service.service import offline_query
    from repro.storage.snapshot import save_index

    rng = random.Random(7)
    outer = small(rng, 120, domain=400, longest=40)
    inner = small(rng, 120, domain=400, longest=40, base=1000)
    path = str(tmp_path / "index.oip")
    save_index(
        path,
        workload_inputs.to_relation(outer, "outer"),
        workload_inputs.to_relation(inner, "inner"),
    )
    reference = rj.Reference()
    reference.add(0, outer, inner)
    for window in (None, (1, 1), (400, 400), (100, 160), (1, 400)):
        op = "join" if window is None else "lookup"
        body = offline_query(path, op=op, window=window, include_pairs=True, max_pairs=50)
        problems, checked = rj.check_response(body, reference, window, 50)
        assert problems == []
        assert checked


def test_check_response_reports_wrong_answers():
    outer = [(1, 5, 0), (4, 8, 1)]
    inner = [(5, 6, 10), (8, 9, 11)]
    reference = rj.Reference()
    reference.add(2, outer, inner)
    expected = reference.expected(2, (5, 5))
    good = {
        "generation": 2,
        "completed": True,
        "pairs": expected.count,
        "fingerprint": expected.fingerprint,
        "results": [[[1, 5, 0], [5, 6, 10]], [[4, 8, 1], [5, 6, 10]]],
        "results_truncated": False,
    }
    assert rj.check_response(good, reference, (5, 5), 10) == ([], True)
    assert rj.check_response({**good, "pairs": 3}, reference, (5, 5), 10)[0]
    assert rj.check_response({**good, "fingerprint": 1}, reference, (5, 5), 10)[0]
    assert rj.check_response({**good, "completed": False}, reference, (5, 5), 10)[0]
    assert rj.check_response({**good, "generation": 3}, reference, (5, 5), 10)[0]
    outside = {**good, "results": [[[4, 8, 1], [8, 9, 11]], [[1, 5, 0], [5, 6, 10]]]}
    assert rj.check_response(outside, reference, (5, 5), 10)[0]
    # Another fingerprint scheme: counts and pairs are still checked.
    versioned = {**good, "fingerprint": 99, "fingerprint_version": 2}
    assert rj.check_response(versioned, reference, (5, 5), 10) == ([], False)
