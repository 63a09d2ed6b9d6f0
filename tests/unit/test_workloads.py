"""Unit tests for workload generators (repro.workloads)."""

import random

import pytest

from repro.ot.operations import Delete, Insert
from repro.workloads.random_session import (
    RandomSessionConfig,
    generate_random_edits,
    random_positional_op,
)
from repro.workloads.scripted import (
    FIG2_INITIAL_DOCUMENT,
    FIG3_EXPECTED,
    fig2_intention_example,
    fig3_script,
    fig_latency_factory,
)
from repro.workloads.typing_model import TypingBurstConfig, typing_burst_schedule


class TestScripted:
    def test_fig3_script_shape(self):
        script = fig3_script()
        assert [s.label for s in script] == ["O2", "O1", "O4", "O3"]
        assert [s.site for s in script] == [2, 1, 3, 2]
        assert script[0].op == Delete(3, 2)
        assert script[1].op == Insert("12", 1)

    def test_generation_times_strictly_ordered_for_notifier_arrival(self):
        """gen time + channel latency must produce arrival order O2 O1 O4 O3."""
        from repro.workloads.scripted import FIG_LATENCIES

        script = {s.label: s for s in fig3_script()}
        arrivals = {
            label: s.time + FIG_LATENCIES[s.site] for label, s in script.items()
        }
        ordered = sorted(arrivals, key=arrivals.get)
        assert ordered == ["O2", "O1", "O4", "O3"]

    def test_labels_follow_each_sites_script_order(self):
        """No label travels: a site's k-th scripted op is its op k."""
        from repro.workloads.scripted import fig3_labels

        assert fig3_labels() == {
            "c2_1": "O2", "c2_1'": "O2'", "c1_1": "O1", "c1_1'": "O1'",
            "c3_1": "O4", "c3_1'": "O4'", "c2_2": "O3", "c2_2'": "O3'",
        }

    def test_latency_factory_symmetric(self):
        assert fig_latency_factory(0, 2).latency == fig_latency_factory(2, 0).latency

    def test_intention_example_values(self):
        doc, o1, o2, preserved, naive = fig2_intention_example()
        assert doc == FIG2_INITIAL_DOCUMENT == "ABCDE"
        assert o2.apply(o1.apply(doc)) == naive == "A1DE"
        assert preserved == "A12B"

    def test_expected_tables_cover_all_broadcasts(self):
        # 4 ops * 2 destinations each
        assert len(FIG3_EXPECTED["broadcast_timestamps"]) == 8
        assert len(FIG3_EXPECTED["notifier_buffer_timestamps"]) == 4


class TestRandomSession:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RandomSessionConfig(n_sites=0)
        with pytest.raises(ValueError):
            RandomSessionConfig(insert_ratio=1.5)
        with pytest.raises(ValueError):
            RandomSessionConfig(ops_per_site=-1)

    def test_edits_sorted_and_counted(self):
        config = RandomSessionConfig(n_sites=3, ops_per_site=5, seed=1)
        intents = generate_random_edits(config)
        assert len(intents) == 15
        assert intents == sorted(intents, key=lambda i: i.time)
        assert {i.site for i in intents} == {1, 2, 3}

    def test_deterministic_under_seed(self):
        config = RandomSessionConfig(seed=42)
        assert generate_random_edits(config) == generate_random_edits(config)

    def test_ops_always_valid(self):
        config = RandomSessionConfig(seed=7, insert_ratio=0.4)
        rng = random.Random(0)
        doc = config.initial_document
        for _ in range(300):
            op = random_positional_op(rng, doc, config)
            doc = op.apply(doc)  # raises if invalid

    def test_empty_document_forces_insert(self):
        config = RandomSessionConfig(insert_ratio=0.0)
        op = random_positional_op(random.Random(1), "", config)
        assert isinstance(op, Insert)

    def test_hotspot_positions_concentrate(self):
        config = RandomSessionConfig(seed=1, hotspot=True, insert_ratio=1.0)
        rng = random.Random(2)
        doc = "x" * 1000
        positions = [random_positional_op(rng, doc, config).pos for _ in range(200)]
        centre = len(doc) // 2
        near = sum(1 for p in positions if abs(p - centre) < 400)
        assert near == len(positions)


class TestTypingModel:
    def test_schedule_shape(self):
        config = TypingBurstConfig(n_sites=2, bursts_per_site=3, burst_length=5, seed=4)
        schedule = typing_burst_schedule(config)
        assert len(schedule) == 2 * 3 * 5
        assert schedule == sorted(schedule, key=lambda k: k.time)
        assert all(len(k.char) == 1 for k in schedule)

    def test_deterministic(self):
        config = TypingBurstConfig(seed=9)
        assert typing_burst_schedule(config) == typing_burst_schedule(config)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TypingBurstConfig(n_sites=0)
        with pytest.raises(ValueError):
            TypingBurstConfig(burst_length=0)
