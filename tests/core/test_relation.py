"""Tests for pairwise relation-weight quantification (§III-B1)."""

import collections
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.entity import ConfigEntity, Flag, ValueType
from repro.core.model import ConfigurationModel
from repro.core.probes import assignment_items
from repro.core.relation import RelationQuantifier, _combo_key
from repro.coverage.bitmap import CoverageMap
from repro.errors import StartupError


def _bool_entity(name):
    return ConfigEntity(name, ValueType.BOOLEAN, Flag.MUTABLE, (True, False))


def _synthetic_probe(assignment):
    """A startup with baseline sites plus feature- and synergy-gated sites.

    - ``a`` on: sites a1, a2
    - ``b`` on: site b1; with ``a`` also on: synergy site ab
    - ``c`` on together with ``a``: startup conflict
    """
    coverage = CoverageMap(["base1", "base2"])
    a_on = assignment.get("a") is True
    b_on = assignment.get("b") is True
    c_on = assignment.get("c") is True
    if a_on and c_on:
        raise StartupError("a conflicts with c", ("a", "c"))
    if a_on:
        coverage.hit("a1")
        coverage.hit("a2")
    if b_on:
        coverage.hit("b1")
        if a_on:
            coverage.hit("ab")
    if c_on:
        coverage.hit("c1")
    return coverage


def _quantify_pair(quantifier, name_a, name_b):
    """Quantify a two-entity model; return its raw weight and report."""
    model = ConfigurationModel([_bool_entity(name_a), _bool_entity(name_b)])
    _, report = quantifier.quantify(model)
    return report.raw_weights.get((name_a, name_b), 0.0), report


def _record(report, assignment):
    return next(record for record in report.probes
                if record.assignment == assignment)


class TestProbeAssignment:
    def test_success_records_sites(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        _, report = _quantify_pair(quantifier, "a", "b")
        record = _record(report, {"a": True, "b": False})
        assert record.branches == 4
        assert "a1" in record.sites
        assert not record.failed

    def test_failure_records_zero(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        _, report = _quantify_pair(quantifier, "a", "c")
        record = _record(report, {"a": True, "c": True})
        assert record.failed
        assert record.branches == 0

    def test_plain_int_probe_supported(self):
        quantifier = RelationQuantifier(lambda asg: CoverageMap(["x"]))
        _, report = _quantify_pair(quantifier, "a", "b")
        assert report.launches > 0
        assert all(record.branches == 1 for record in report.probes)


class TestPairWeight:
    def test_synergy_detected(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        weight, _ = _quantify_pair(quantifier, "a", "b")
        assert weight == 1.0  # the "ab" site

    def test_independent_pair_has_zero_weight(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        weight, _ = _quantify_pair(quantifier, "b", "c")
        assert weight == 0.0

    def test_conflicting_pair_has_zero_weight(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        weight, report = _quantify_pair(quantifier, "a", "c")
        assert weight == 0.0
        assert report.failures == 1

    def test_non_synergy_mode_uses_absolute_coverage(self):
        quantifier = RelationQuantifier(_synthetic_probe, synergy=False)
        weight, _ = _quantify_pair(quantifier, "a", "b")
        assert weight == 6.0  # base1 base2 a1 a2 b1 ab

    def test_mean_aggregate_below_max(self):
        max_q = RelationQuantifier(_synthetic_probe, synergy=False, aggregate="max")
        mean_q = RelationQuantifier(_synthetic_probe, synergy=False, aggregate="mean")
        max_weight, _ = _quantify_pair(max_q, "a", "b")
        mean_weight, _ = _quantify_pair(mean_q, "a", "b")
        assert mean_weight < max_weight
        # (T,T)=6, (T,F)=4, (F,T)=3, (F,F)=2 sites.
        assert mean_weight == 15.0 / 4

    def test_combination_cap_respected(self):
        calls = []

        def probe(assignment):
            calls.append(assignment)
            return CoverageMap(["s"])

        quantifier = RelationQuantifier(probe, max_combinations=2, synergy=False)
        _, report = _quantify_pair(quantifier, "a", "b")
        assert calls == [{"a": True, "b": True}, {"a": True, "b": False}]
        assert report.launches == 2

    def test_invalid_aggregate_rejected(self):
        with pytest.raises(ValueError):
            RelationQuantifier(_synthetic_probe, aggregate="median")

    def test_probe_or_executor_required(self):
        with pytest.raises(ValueError):
            RelationQuantifier()


class TestQuantify:
    def _model(self):
        return ConfigurationModel(
            [_bool_entity("a"), _bool_entity("b"), _bool_entity("c"),
             ConfigEntity("path", ValueType.STRING, Flag.IMMUTABLE, ())]
        )

    def test_builds_relation_model(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        relation_model, report = quantifier.quantify(self._model())
        assert relation_model.weight("a", "b") == 1.0
        assert relation_model.weight("a", "c") == 0.0
        assert relation_model.weight("b", "c") == 0.0

    def test_weights_normalised(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        relation_model, _ = quantifier.quantify(self._model())
        for _, _, weight in relation_model.edges():
            assert 0.0 <= weight <= 1.0

    def test_immutable_entities_not_probed(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        relation_model, _ = quantifier.quantify(self._model())
        assert "path" in relation_model.isolated_entities()

    def test_report_counts_launches_and_failures(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        _, report = quantifier.quantify(self._model())
        assert report.launches > 0
        assert report.failures > 0  # the a+c conflicts

    def test_report_best_values_prefer_high_coverage(self):
        quantifier = RelationQuantifier(_synthetic_probe)
        _, report = quantifier.quantify(self._model())
        assert report.best_values["a"] is True
        assert report.best_values["b"] is True

    def test_single_probe_caching(self):
        calls = []

        def probe(assignment):
            calls.append(dict(assignment))
            return _synthetic_probe(assignment)

        quantifier = RelationQuantifier(probe)
        quantifier.quantify(self._model())
        singles = [c for c in calls if len(c) == 1]
        assert len(singles) == len({tuple(sorted(c.items())) for c in singles})


_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.text())


class TestPlan:
    @given(name_a=st.text(), name_b=st.text(), value_a=_VALUES,
           value_b=_VALUES)
    def test_combo_key_is_the_sorted_assignment(self, name_a, name_b,
                                                value_a, value_b):
        entity_a = types.SimpleNamespace(name=name_a)
        entity_b = types.SimpleNamespace(name=name_b)
        assignment = RelationQuantifier._combo_assignment(
            entity_a, entity_b, value_a, value_b)
        assert (_combo_key(name_a, name_b, value_a, value_b)
                == assignment_items(assignment))

    @staticmethod
    def _count_enumerations(monkeypatch):
        calls = collections.Counter()
        enumerate_pair = RelationQuantifier._pair_combinations

        def counted(self, entity_a, entity_b):
            calls[(entity_a.name, entity_b.name)] += 1
            return enumerate_pair(self, entity_a, entity_b)

        monkeypatch.setattr(RelationQuantifier, "_pair_combinations", counted)
        return calls

    def test_each_pair_enumerated_once(self, monkeypatch):
        calls = self._count_enumerations(monkeypatch)
        model = ConfigurationModel([_bool_entity(n) for n in "abcd"])
        quantifier = RelationQuantifier(_synthetic_probe)
        _, previous = quantifier.quantify(model)
        pairs = {("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                 ("b", "d"), ("c", "d")}
        assert calls == dict.fromkeys(pairs, 1)

        calls.clear()
        quantifier.requantify(model, previous, changed=["b"])
        assert calls == dict.fromkeys(pairs, 1)

    def test_plain_list_probe_matches_frozenset_probe(self):
        def as_list(assignment):
            return sorted(_synthetic_probe(assignment))

        def as_frozenset(assignment):
            return frozenset(_synthetic_probe(assignment))

        model = ConfigurationModel([_bool_entity(n) for n in "abc"])
        listed = RelationQuantifier(as_list).quantify(model)[1]
        frozen = RelationQuantifier(as_frozenset).quantify(model)[1]
        assert listed.raw_weights == frozen.raw_weights == {("a", "b"): 1.0}
        assert listed.best_values == frozen.best_values
        assert ([(r.assignment, r.sites, r.failed) for r in listed.probes]
                == [(r.assignment, r.sites, r.failed) for r in frozen.probes])
