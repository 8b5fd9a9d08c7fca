"""Determinism and isolation of campaigns (no hidden global state)."""


from repro.harness.campaign import CampaignConfig, run_campaign
from repro.parallel.cmfuzz import CmFuzzMode
from repro.parallel.peach import PeachParallelMode
from repro.targets import get_target
from repro.targets.dns.server import DnsmasqTarget


def _config(seed=13):
    return CampaignConfig(n_instances=2, duration_hours=3.0, seed=seed)


def _run(mode_factory, seed=13):
    return run_campaign(DnsmasqTarget, get_target("dnsmasq").state_model(),
                        mode_factory(), _config(seed))


class TestDeterminism:
    def test_cmfuzz_campaign_reproducible(self):
        first = _run(CmFuzzMode)
        second = _run(CmFuzzMode)
        assert first.final_coverage == second.final_coverage
        assert first.iterations == second.iterations
        assert {b.signature for b in first.bugs.unique_bugs()} == \
            {b.signature for b in second.bugs.unique_bugs()}

    def test_coverage_series_identical(self):
        first = _run(CmFuzzMode)
        second = _run(CmFuzzMode)
        assert first.coverage.points() == second.coverage.points()

    def test_campaigns_do_not_interfere(self):
        baseline = _run(PeachParallelMode)
        _run(CmFuzzMode, seed=99)  # interleaved unrelated campaign
        again = _run(PeachParallelMode)
        assert again.final_coverage == baseline.final_coverage
        assert again.iterations == baseline.iterations

    def test_mode_objects_not_reusable_state_fresh(self):
        # A fresh mode object per campaign is the contract; two sequential
        # campaigns with fresh modes must match a single one.
        results = [_run(CmFuzzMode) for _ in range(2)]
        assert results[0].final_coverage == results[1].final_coverage
