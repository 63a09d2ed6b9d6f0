"""Unit tests for the end-to-end latency observatory (repro.obs.spans).

The skew-estimator tests are deterministic constructions of the model in
the module docstring: sites with known clock offsets ``theta``, links
with known one-way delays, and assertions that the estimate lands where
the math says it must -- exact under symmetric delays, within the
documented ``RTT_min / 2`` bound under asymmetry, and *refused* (not
guessed) when a pair has no bidirectional path.  The assembly tests feed
it the generation, release, transform and execution events a star's
trace records, stamped on skewed clocks.
"""

import pytest

from repro.obs.spans import (
    PairLatency,
    SkewEstimator,
    SpanReport,
    assemble_spans,
)
from repro.obs.tracer import TraceEvent, TraceEventKind


def sample(est, src, dst, delay, theta):
    """Feed one sample for a true one-way ``delay`` between skewed clocks.

    The receiver observes ``delay + (theta[dst] - theta[src])`` -- the
    quantity the estimator actually gets in production.
    """
    est.add_sample(src, dst, delay + theta[dst] - theta[src])


class TestSkewEstimator:
    def test_symmetric_link_recovers_exact_offset(self):
        # Site 1's clock runs 50 ms ahead of site 0; delays symmetric.
        theta = {0: 0.0, 1: 0.050}
        est = SkewEstimator()
        for delay in (0.004, 0.002, 0.003):
            sample(est, 0, 1, delay, theta)
            sample(est, 1, 0, delay, theta)
        offset = est.edge_offset(0, 1)
        assert offset == pytest.approx(0.050, abs=1e-12)
        # min delay 2 ms each way => bound is exactly 2 ms.
        assert est.edge_error(0, 1) == pytest.approx(0.002, abs=1e-12)

    def test_negative_offset_recovered(self):
        # The other direction: site 1 runs 50 ms *behind* site 0.
        theta = {0: 0.0, 1: -0.050}
        est = SkewEstimator()
        sample(est, 0, 1, 0.005, theta)
        sample(est, 1, 0, 0.005, theta)
        assert est.edge_offset(0, 1) == pytest.approx(-0.050, abs=1e-12)

    def test_asymmetric_delay_error_within_documented_bound(self):
        # 10 ms forward, 30 ms back, true offset +50 ms.  The estimator
        # sees m_01 = 60 ms, m_10 = -20 ms => estimate 40 ms: off by
        # 10 ms = half the asymmetry, within the 20 ms published bound.
        theta = {0: 0.0, 1: 0.050}
        est = SkewEstimator()
        sample(est, 0, 1, 0.010, theta)
        sample(est, 1, 0, 0.030, theta)
        offset = est.edge_offset(0, 1)
        bound = est.edge_error(0, 1)
        assert offset == pytest.approx(0.040, abs=1e-12)
        assert bound == pytest.approx(0.020, abs=1e-12)
        assert abs(offset - 0.050) <= bound

    def test_minimum_filter_discards_queueing_noise(self):
        # One clean sample per direction beats any amount of later
        # queueing-delay noise: the estimator keys on per-edge minima.
        theta = {0: 0.0, 1: 0.050}
        est = SkewEstimator()
        sample(est, 0, 1, 0.002, theta)
        sample(est, 1, 0, 0.002, theta)
        for noisy in (0.040, 0.120, 0.500):
            sample(est, 0, 1, noisy, theta)
            sample(est, 1, 0, noisy, theta)
        assert est.edge_offset(0, 1) == pytest.approx(0.050, abs=1e-12)

    def test_one_way_link_is_uncorrectable(self):
        # Samples in only one direction: no RTT, no bound, no guess.
        est = SkewEstimator()
        est.add_sample(0, 1, 0.010)
        assert est.edge_offset(0, 1) is None
        assert est.edge_error(0, 1) is None
        assert est.pair_offset(0, 1) is None
        assert est.pair_offset(1, 0) is None

    def test_pair_offset_composes_through_the_centre(self):
        # Star topology: 1 and 2 never exchange samples directly, but
        # both share a bidirectional link with centre 0.  Their offset
        # is the composition, and the error bounds add along the path.
        theta = {0: 0.0, 1: 0.050, 2: -0.020}
        est = SkewEstimator()
        for a in (1, 2):
            sample(est, a, 0, 0.003, theta)
            sample(est, 0, a, 0.003, theta)
        composed = est.pair_offset(1, 2)
        assert composed is not None
        offset, bound = composed
        # theta_2 - theta_1 = -0.020 - 0.050
        assert offset == pytest.approx(-0.070, abs=1e-12)
        assert bound == pytest.approx(0.006, abs=1e-12)  # 3 ms + 3 ms

    def test_identity_pair(self):
        assert SkewEstimator().pair_offset(3, 3) == (0.0, 0.0)


def event(index, kind, *, site, time, op_id, peer=None, source_op=None):
    return TraceEvent(index=index, kind=kind, time=time, site=site,
                      op_id=op_id, peer=peer, source_op=source_op)


GENERATED = TraceEventKind.GENERATED
RELEASED = TraceEventKind.RELEASED
TRANSFORMED = TraceEventKind.TRANSFORMED
EXECUTED = TraceEventKind.EXECUTED


def star_trace(theta, *, ingest_delay=0.002, fanout_delay=0.003):
    """A one-op synthetic trace: client 1 -> centre 0 -> client 2.

    All event times are rendered on each site's own (skewed) clock, the
    way real per-process tracers would stamp them.  The centre releases,
    executes and transforms an arrival at one instant; the broadcast
    form ``<op>'`` is what the clients execute.  A release names no op
    (no name is on the wire): the centre's execution is the forward
    sample.
    """
    origin_true = 1.0  # true time the op was generated at site 1
    origin_stamp = origin_true + theta[1]
    ingest_true = origin_true + ingest_delay
    exec_true = ingest_true + fanout_delay
    events = [
        event(0, GENERATED, site=1, time=origin_stamp, op_id="1'1"),
        event(1, RELEASED, site=0, time=ingest_true + theta[0],
              peer=1, op_id=None),
        event(2, EXECUTED, site=0, time=ingest_true + theta[0], op_id="1'1"),
        event(3, TRANSFORMED, site=0, time=ingest_true + theta[0],
              op_id="1'1'", source_op="1'1"),
        event(4, EXECUTED, site=2, time=exec_true + theta[2], op_id="1'1'"),
        # The return samples that make links bidirectional: site 1 also
        # executes an op that 2 originated through the centre.
        event(5, GENERATED, site=2, time=2.0 + theta[2], op_id="2'1"),
        event(6, RELEASED, site=0, time=2.0 + ingest_delay + theta[0],
              peer=2, op_id=None),
        event(7, EXECUTED, site=0, time=2.0 + ingest_delay + theta[0], op_id="2'1"),
        event(8, TRANSFORMED, site=0, time=2.0 + ingest_delay + theta[0],
              op_id="2'1'", source_op="2'1"),
        event(9, EXECUTED, site=1,
              time=2.0 + ingest_delay + fanout_delay + theta[1], op_id="2'1'"),
    ]
    return events


class TestAssembleSpans:
    def test_empty_trace(self):
        report = assemble_spans([])
        assert report.pairs == {}
        assert report.summary_lines() == []

    def test_a_generation_alone_makes_no_pair(self):
        generated = event(0, GENERATED, time=0.0, site=1, op_id="1'1")
        report = assemble_spans([generated])
        assert report.pairs == {}
        assert report.summary_lines() == []

    def test_skew_corrected_latency_recovers_true_delay(self):
        # 80 ms of clock skew between origin and executor; the true
        # end-to-end pipeline is 5 ms.  Raw latency is garbage
        # (skew-dominated); corrected latency is the true delay.
        theta = {0: 0.010, 1: 0.050, 2: -0.030}
        report = assemble_spans(star_trace(theta))
        pair = report.pairs[(1, 2)]
        assert pair.correctable
        raw = pair.raw.percentile(50)
        corrected = pair.corrected.percentile(50)
        assert raw == pytest.approx(0.005 + theta[2] - theta[1], abs=1e-9)
        assert corrected == pytest.approx(0.005, abs=1e-9)
        # The composed offset is exact here (symmetric construction).
        assert pair.offset_s == pytest.approx(theta[2] - theta[1], abs=1e-9)

    def test_every_execution_away_from_its_origin_is_a_pair(self):
        report = assemble_spans(star_trace({0: 0.0, 1: 0.0, 2: 0.0}))
        assert sorted(report.pairs) == [(1, 0), (1, 2), (2, 0), (2, 1)]
        assert all(pair.raw.count == 1 for pair in report.pairs.values())
        # No skew to correct: the corrected p50 is the 5 ms pipeline itself.
        assert report.pairs[(1, 2)].corrected.percentile(50) == pytest.approx(
            0.005, abs=1e-9)

    def test_uncorrectable_pair_flagged_and_raw(self):
        # Only the forward half of the trace: site 2 never originates,
        # so the 0<->2 link has no return samples -- (1, 2) cannot be
        # corrected and must be flagged, not silently guessed.
        events = star_trace({0: 0.0, 1: 0.040, 2: 0.0})[:5]
        report = assemble_spans(events)
        pair = report.pairs[(1, 2)]
        assert not pair.correctable
        assert pair.corrected is None
        assert (1, 2) in report.uncorrectable_pairs
        assert "UNCORRECTABLE" in pair.row()
        text = "\n".join(report.summary_lines())
        assert "uncorrectable skew" in text
        # Raw latencies are still published for the flagged pair.
        assert pair.raw.count == 1

    def test_all_corrected_unions_correctable_pairs_only(self):
        report = SpanReport()
        good = PairLatency(origin=1, executor=2)
        good.raw.observe(0.005)
        from repro.obs.tracer import Histogram

        good.corrected = Histogram()
        good.corrected.observe(0.005)
        bad = PairLatency(origin=2, executor=1)
        bad.raw.observe(9.9)
        report.pairs = {(1, 2): good, (2, 1): bad}
        corrected = [pair.corrected for pair in report.pairs.values()
                     if pair.corrected is not None]
        assert len(corrected) == 1
        assert corrected[0].count == 1
        assert corrected[0].percentile(50) == pytest.approx(0.005)
        assert report.uncorrectable_pairs == [(2, 1)]
