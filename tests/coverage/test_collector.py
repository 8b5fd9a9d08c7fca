"""Tests for coverage collectors."""

from repro.coverage.collector import CoverageCollector, NullCollector


class TestCoverageCollector:
    def test_hits_both_run_and_total(self):
        collector = CoverageCollector()
        collector.hit("x")
        assert "x" in collector.run
        assert "x" in collector.total

    def test_component_prefix(self):
        collector = CoverageCollector(component="mqtt")
        collector.hit("startup")
        assert "mqtt:startup" in collector.total

    def test_run_new_tracks_first_discoveries(self):
        collector = CoverageCollector()
        collector.hit("a")
        assert collector.run_new == {"a"}
        collector.start_run()
        collector.hit("a")
        collector.hit("b")
        assert collector.run_new == {"b"}

    def test_start_run_resets_run_map_only(self):
        collector = CoverageCollector()
        collector.hit("a")
        collector.start_run()
        assert len(collector.run) == 0
        assert "a" in collector.total

    def test_end_run_returns_run_map(self):
        collector = CoverageCollector()
        collector.start_run()
        collector.hit("a")
        run = collector.end_run()
        assert "a" in run

    def test_branch_records_arm(self):
        collector = CoverageCollector()
        assert collector.branch("cond", True) is True
        assert collector.branch("cond", False) is False
        assert "cond/T" in collector.total
        assert "cond/F" in collector.total

    def test_branch_return_value_usable_in_if(self):
        collector = CoverageCollector()
        taken = []
        if collector.branch("c", 1 > 0):
            taken.append(True)
        assert taken == [True]

    def test_reset_clears_everything(self):
        collector = CoverageCollector()
        collector.hit("a")
        collector.reset()
        assert len(collector.total) == 0
        assert collector.run_new == set()

    def test_null_collector_discards(self):
        collector = NullCollector()
        collector.hit("a")
        assert collector.branch("b", True) is True
        assert collector.branch("b", False) is False
        assert len(collector.total) == 0
        assert collector.run_new == set()
