"""CLAIM-CHECK: concurrency-check cost.

Formulas (5) and (7) reduce each check to one or two integer
comparisons regardless of N, whereas a full vector-clock comparison is
O(N).  Benchmarks a realistic check workload -- a new operation arriving
at a site with an H-entry history -- for both schemes across N, plus the
numpy-vectorised bulk variant to give the full-vector baseline its best
implementation.  numpy is a benchmark-only import (the ``bench`` extra):
``repro`` itself imports nothing outside the standard library.
"""

import random

import pytest
from conftest import emit

from repro.clocks.vector import VectorClock, concurrent
from repro.core.concurrency import client_concurrent, notifier_concurrent
from repro.core.timestamp import CompressedTimestamp, FullTimestamp, OriginKind

HB_LEN = 200


def bulk_concurrent(clocks_a, clocks_b):
    """Vectorised pairwise concurrency check for equal-length sequences:
    numpy broadcasting rather than a Python loop, the full-vector
    baseline's best shot."""
    import numpy as np

    if len(clocks_a) != len(clocks_b):
        raise ValueError("sequences must have equal length")
    if not clocks_a:
        return np.zeros(0, dtype=bool)
    a = np.array([c.counts for c in clocks_a], dtype=np.int64)
    b = np.array([c.counts for c in clocks_b], dtype=np.int64)
    a_le_b = (a <= b).all(axis=1)
    b_le_a = (b <= a).all(axis=1)
    return ~(a_le_b | b_le_a)


class TestBulkConcurrent:
    @pytest.fixture(autouse=True)
    def _numpy(self):
        pytest.importorskip("numpy")

    def test_matches_scalar_implementation(self):
        import numpy as np

        rng = np.random.default_rng(7)
        a = [VectorClock.of(rng.integers(0, 5, size=4)) for _ in range(50)]
        b = [VectorClock.of(rng.integers(0, 5, size=4)) for _ in range(50)]
        bulk = bulk_concurrent(a, b)
        scalar = np.array([concurrent(x, y) for x, y in zip(a, b)])
        assert (bulk == scalar).all()

    def test_empty_input(self):
        assert bulk_concurrent([], []).shape == (0,)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bulk_concurrent([VectorClock.zero(2)], [])


def make_compressed_history(rng):
    kinds = [OriginKind.LOCAL, OriginKind.FROM_CENTER]
    return [
        (CompressedTimestamp(rng.randrange(50), rng.randrange(50)), rng.choice(kinds))
        for _ in range(HB_LEN)
    ]


def make_full_history(rng, n):
    return [
        FullTimestamp(tuple(rng.randrange(20) for _ in range(n))) for _ in range(HB_LEN)
    ]


def make_vc_history(rng, n):
    return [
        VectorClock.of(tuple(rng.randrange(20) for _ in range(n))) for _ in range(HB_LEN)
    ]


def test_client_check_compressed(benchmark):
    rng = random.Random(0)
    history = make_compressed_history(rng)
    new_ts = CompressedTimestamp(25, 25)

    def sweep():
        return sum(
            client_concurrent(new_ts, ts, kind) for ts, kind in history
        )

    benchmark(sweep)


@pytest.mark.parametrize("n", [4, 64, 1024])
def test_notifier_check_compressed(benchmark, n):
    """Formula (7): one sum over the buffered full vector (O(N) at the
    notifier only -- the clients stay O(1))."""
    rng = random.Random(1)
    history = make_full_history(rng, n)
    new_ts = CompressedTimestamp(40, 3)

    def sweep():
        return sum(notifier_concurrent(new_ts, 1, ts, 2) for ts in history)

    benchmark(sweep)


@pytest.mark.parametrize("n", [4, 64, 1024])
def test_full_vector_check(benchmark, n):
    """The baseline: comparing two N-element vectors per history entry."""
    rng = random.Random(2)
    history = make_vc_history(rng, n)
    new_vc = VectorClock.of(tuple(rng.randrange(20) for _ in range(n)))

    def sweep():
        return sum(concurrent(new_vc, vc) for vc in history)

    benchmark(sweep)


@pytest.mark.parametrize("n", [64, 1024])
def test_full_vector_check_numpy(benchmark, n):
    pytest.importorskip("numpy")
    rng = random.Random(3)
    history = make_vc_history(rng, n)
    new_vc = VectorClock.of(tuple(rng.randrange(20) for _ in range(n)))
    repeated = [new_vc] * len(history)

    benchmark(lambda: bulk_concurrent(repeated, history).sum())


def test_check_shape_summary(benchmark):
    """Shape claim: client checks are O(1) in N by construction (they
    never look at an N-sized object); benchmark one single check."""
    ts_small = CompressedTimestamp(3, 1)
    ts_buf = CompressedTimestamp(1, 2)
    assert benchmark(client_concurrent, ts_small, ts_buf, OriginKind.LOCAL)
    emit(
        "CLAIM-CHECK: structural summary",
        "client check reads 2 ints (O(1) in N); notifier check sums one\n"
        "buffered N-vector (O(N) at the single notifier); full-VC check\n"
        "compares two N-vectors at EVERY site.",
    )
