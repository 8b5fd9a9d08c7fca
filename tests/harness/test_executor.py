"""Golden equivalence: the pooled executor vs the serial harness.

The same seed pushed through serial :func:`run_repeated` and through
:func:`execute_specs` (both the in-process ``workers=1`` path and a real
process pool) must produce identical final coverage, coverage time
series, deduplicated bug ledgers and iteration counts for every mode.
"""

import os

import pytest

from repro.harness.campaign import CampaignConfig, run_repeated
from repro.harness.executor import (
    execute_specs,
    outcomes,
    results,
    specs_for_repeated,
)
from repro.api import compare_modes
from repro.parallel import get_mode
from repro.targets import get_target

FUZZERS = ("cmfuzz", "peach", "spfuzz")
REPETITIONS = 2

# CI forces each executor path explicitly via CMFUZZ_EXECUTOR_WORKERS;
# a plain local run exercises both.
_forced = os.environ.get("CMFUZZ_EXECUTOR_WORKERS")
WORKER_COUNTS = (int(_forced),) if _forced else (1, 2)


def _config(seed=13):
    return CampaignConfig(n_instances=2, duration_hours=2.0, seed=seed)


@pytest.fixture(scope="module")
def serial_baseline():
    entry = get_target("dnsmasq")
    return {
        mode: run_repeated(
            entry.target_cls, entry.state_model, get_mode(mode).factory,
            repetitions=REPETITIONS, config=_config(),
        )
        for mode in FUZZERS
    }


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("mode", FUZZERS)
class TestGoldenEquivalence:
    def test_outcomes_match_serial(self, serial_baseline, mode, workers):
        specs = specs_for_repeated("dnsmasq", mode, REPETITIONS, _config())
        pooled = outcomes(execute_specs(specs, workers=workers))
        assert len(pooled) == len(serial_baseline[mode])
        for serial, outcome in zip(serial_baseline[mode], pooled):
            assert outcome.mode == serial.mode
            assert outcome.target == serial.target
            assert outcome.final_coverage == serial.final_coverage
            assert outcome.coverage_points == serial.coverage.points()
            assert outcome.bug_entries == serial.bugs.snapshot()
            assert outcome.iterations == serial.iterations
            assert outcome.startup_conflicts == serial.startup_conflicts

    def test_instance_counters_match_serial(self, serial_baseline, mode, workers):
        specs = specs_for_repeated("dnsmasq", mode, REPETITIONS, _config())
        pooled = outcomes(execute_specs(specs, workers=workers))
        for serial, outcome in zip(serial_baseline[mode], pooled):
            assert len(outcome.instance_stats) == len(serial.instances)
            for instance, stats in zip(serial.instances, outcome.instance_stats):
                assert stats.index == instance.index
                assert stats.coverage == instance.coverage
                assert stats.restarts == instance.restarts
                assert stats.config_mutations == instance.config_mutations
                assert stats.dead == instance.dead

    def test_rebuilt_results_match_serial(self, serial_baseline, mode, workers):
        specs = specs_for_repeated("dnsmasq", mode, REPETITIONS, _config())
        rebuilt = results(execute_specs(specs, workers=workers))
        for serial, result in zip(serial_baseline[mode], rebuilt):
            assert result.final_coverage == serial.final_coverage
            assert result.coverage.points() == serial.coverage.points()
            assert result.bugs.snapshot() == serial.bugs.snapshot()
            assert result.unique_bug_count() == serial.unique_bug_count()
            assert result.iterations == serial.iterations


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestDeterministicOrdering:
    def test_results_come_back_in_spec_order(self, workers):
        # Staggered durations scramble completion order; result order
        # must follow spec order regardless.
        specs = []
        for position, hours in enumerate((3.0, 0.5, 2.0, 1.0)):
            specs.append(specs_for_repeated(
                "dnsmasq", "peach", 1,
                CampaignConfig(n_instances=1, duration_hours=hours,
                               seed=100 + position),
            )[0])
        cells = execute_specs(specs, workers=workers)
        assert [cell.index for cell in cells] == [0, 1, 2, 3]
        assert [cell.spec for cell in cells] == specs
        horizons = [cell.outcome.coverage_points[-1][0] for cell in cells]
        assert horizons == [hours * 3600.0 for hours in (3.0, 0.5, 2.0, 1.0)]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
class TestResultCache:
    def test_warm_cache_skips_execution_and_preserves_results(
            self, tmp_path, workers):
        specs = specs_for_repeated("dnsmasq", "cmfuzz", REPETITIONS, _config())
        cold = execute_specs(specs, workers=workers, cache=True,
                             cache_dir=str(tmp_path))
        assert all(not cell.from_cache for cell in cold)
        warm = execute_specs(specs, workers=workers, cache=True,
                             cache_dir=str(tmp_path))
        assert all(cell.from_cache for cell in warm)
        assert [c.outcome.coverage_points for c in warm] == \
            [c.outcome.coverage_points for c in cold]
        assert [c.outcome.bug_entries for c in warm] == \
            [c.outcome.bug_entries for c in cold]

    def test_corrupt_entry_is_a_miss(self, tmp_path, workers):
        specs = specs_for_repeated("dnsmasq", "peach", 1, _config())
        execute_specs(specs, workers=workers, cache=True, cache_dir=str(tmp_path))
        for name in os.listdir(tmp_path):
            with open(os.path.join(str(tmp_path), name), "wb") as handle:
                handle.write(b"not a pickle")
        again = execute_specs(specs, workers=workers, cache=True,
                              cache_dir=str(tmp_path))
        assert all(not cell.from_cache for cell in again)
        assert all(cell.ok for cell in again)

    def test_distinct_seeds_do_not_share_entries(self, tmp_path, workers):
        first = specs_for_repeated("dnsmasq", "peach", 1, _config(seed=1))
        second = specs_for_repeated("dnsmasq", "peach", 1, _config(seed=2))
        execute_specs(first, workers=workers, cache=True, cache_dir=str(tmp_path))
        cells = execute_specs(second, workers=workers, cache=True,
                              cache_dir=str(tmp_path))
        assert all(not cell.from_cache for cell in cells)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_experiment_wiring_matches_serial(workers):
    """compare_modes(workers=N) groups executor results exactly like
    the serial per-fuzzer loop."""
    config = CampaignConfig(n_instances=2, duration_hours=1.0, seed=7)
    pooled = compare_modes("dnsmasq", modes=FUZZERS, repetitions=2,
                           config=config, workers=workers)
    entry = get_target("dnsmasq")
    for fuzzer in FUZZERS:
        serial = run_repeated(entry.target_cls, entry.state_model,
                              get_mode(fuzzer).factory, repetitions=2,
                              config=config)
        for expected, got in zip(serial, pooled.results[fuzzer]):
            assert got.final_coverage == expected.final_coverage
            assert got.coverage.points() == expected.coverage.points()
            assert got.bugs.snapshot() == expected.bugs.snapshot()
            assert got.iterations == expected.iterations
