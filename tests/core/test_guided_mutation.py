"""Tests for the coverage-guided (bandit) configuration mutator."""

import pytest

from repro.core.entity import ConfigEntity, Flag, ValueType
from repro.core.model import ConfigurationModel
from repro.core.mutation import GuidedConfigMutator
from repro.core.reassembly import reassemble_group


def _model():
    return ConfigurationModel([
        ConfigEntity("hot", ValueType.ENUM, Flag.MUTABLE, ("a", "b", "c", "d")),
        ConfigEntity("cold", ValueType.ENUM, Flag.MUTABLE, ("x", "y", "z", "w")),
    ])


def _bundle(model):
    return reassemble_group(model, ["hot", "cold"])


class TestGuidedMutator:
    def test_mutates_like_base(self):
        model = _model()
        mutator = GuidedConfigMutator(model, seed=1)
        mutated = mutator.mutate(_bundle(model))
        assert mutated is not None
        assert mutated.assignment != _bundle(model).assignment

    def test_untried_entities_explored_first(self):
        model = _model()
        mutator = GuidedConfigMutator(model, seed=2, epsilon=0.0)
        bundle = _bundle(model)
        touched = set()
        for _ in range(2):
            bundle = mutator.mutate(bundle)
        touched = set(mutator._pulls)
        assert touched == {"hot", "cold"}

    def test_rewarded_entity_preferred(self):
        model = _model()
        mutator = GuidedConfigMutator(model, seed=3, epsilon=0.0)
        bundle = _bundle(model)
        # Pull both arms once (exploration of untouched entities).
        for _ in range(2):
            bundle = mutator.mutate(bundle)
        # Reward whichever was mutated last; make it 'hot' deterministic:
        mutator._rewards.clear()
        mutator._rewards["hot"] = 100.0
        picks = []
        for _ in range(6):
            before = dict(bundle.assignment)
            bundle = mutator.mutate(bundle)
            changed = next(k for k in bundle.assignment
                           if bundle.assignment[k] != before[k])
            picks.append(changed)
        assert picks.count("hot") == 6

    def test_reward_without_mutation_is_noop(self):
        mutator = GuidedConfigMutator(_model(), seed=4)
        mutator.reward(10.0)  # nothing mutated yet
        assert mutator._rewards == {}

    def test_negative_gain_clamped(self):
        model = _model()
        mutator = GuidedConfigMutator(model, seed=5)
        mutator.mutate(_bundle(model))
        mutator.reward(-50.0)
        assert all(value == 0.0 for value in mutator._rewards.values())

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            GuidedConfigMutator(_model(), epsilon=1.5)

    def test_no_candidates_returns_none(self):
        model = ConfigurationModel([
            ConfigEntity("fixed", ValueType.STRING, Flag.IMMUTABLE, ()),
        ])
        mutator = GuidedConfigMutator(model, seed=6)
        bundle = reassemble_group(model, ["fixed"])
        assert mutator.mutate(bundle) is None


class TestGuidedCampaign:
    def test_cmfuzz_guided_mode_runs(self):
        from repro.harness.campaign import CampaignConfig, run_campaign
        from repro.parallel.cmfuzz import CmFuzzMode
        from repro.targets import get_target
        from repro.targets.dns.server import DnsmasqTarget

        result = run_campaign(
            DnsmasqTarget, get_target("dnsmasq").state_model(),
            CmFuzzMode(guided_mutation=True, saturation_window=600.0),
            CampaignConfig(n_instances=2, duration_hours=4.0, seed=8),
        )
        assert result.final_coverage > 0
        assert sum(i.config_mutations for i in result.instances) > 0
