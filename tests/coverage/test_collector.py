"""Tests for the coverage collector."""

from repro.coverage.collector import CoverageCollector


class TestCoverageCollector:
    def test_hits_both_run_and_total(self):
        collector = CoverageCollector()
        collector.hit("x")
        assert "x" in collector.run_new
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
        assert collector.run_new == set()
        assert "a" in collector.total

    def test_run_new_keeps_first_hits_of_the_run(self):
        collector = CoverageCollector()
        collector.start_run()
        collector.hit("a")
        collector.hit("a")
        collector.branch("c", True)
        assert collector.run_new == {"a", "c/T"}
        collector.start_run()
        collector.branch("c", True)
        collector.branch("c", False)
        assert collector.run_new == {"c/F"}

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
