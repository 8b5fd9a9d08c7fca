"""Golden parity of the parallel/cached quantification pipeline.

The acceptance bar for the plan -> execute -> replay pipeline is
*bit-identical* output: workers=1, workers=4, and warm-cache rebuilds
must all reproduce the committed report golden
(``tests/goldens/reports.json``) and the same relation weights, best
values, and probe accounting.
The incremental path (``requantify``) must equal a full quantify of the
edited model while only re-probing pairs that contain a changed entity.
"""

import hashlib
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import extract_model
from repro.core.entity import ConfigEntity, Flag, ValueType
from repro.core.model import ConfigurationModel
from repro.core.probes import build_probe_executor
from repro.core.relation import ProbeRecord, RelationQuantifier
from repro.targets import get_target
from repro.targets.base import startup_probe_for
from repro.telemetry import Telemetry, TelemetryConfig
from tests.core.report_goldens import load_report_goldens, quantify_summary

MAX_COMBINATIONS = 4


def _snapshot(result):
    relation_model, report = result
    return {
        "launches": report.launches,
        "failures": report.failures,
        "raw": sorted(report.raw_weights.items()),
        "best": sorted(report.best_values.items(), key=lambda kv: kv[0]),
        "edges": sorted(relation_model.edges_by_weight()),
    }


def _quantify_dnsmasq(**executor_kwargs):
    model = extract_model("dnsmasq")
    executor = build_probe_executor("dnsmasq", **executor_kwargs)
    quantifier = RelationQuantifier(executor=executor,
                                    max_combinations=MAX_COMBINATIONS)
    return _snapshot(quantifier.quantify(model)), executor, quantifier


class TestGoldenParity:
    def test_four_workers_match_report_golden(self):
        # workers=1 and workers=2 are covered for every target by
        # tests/core/test_report_goldens.py.
        golden = load_report_goldens()["dnsmasq"]
        assert quantify_summary("dnsmasq", workers=4) == golden

    def test_warm_cache_is_identical_and_probe_free(self, tmp_path):
        cold, cold_executor, _ = _quantify_dnsmasq(
            cache=True, cache_dir=str(tmp_path))
        assert cold_executor.stats["executed"] > 0

        warm, warm_executor, warm_q = _quantify_dnsmasq(
            cache=True, cache_dir=str(tmp_path))
        assert warm == cold
        assert warm_executor.stats["executed"] == 0
        assert warm_executor.stats["cache_hits"] > 0
        assert warm_q.last_run_stats["executed"] == 0

    def test_telemetry_counters_track_cache(self, tmp_path):
        telemetry = Telemetry.from_config(TelemetryConfig(enabled=True))
        model = extract_model("dnsmasq")
        executor = build_probe_executor("dnsmasq", cache=True,
                                        cache_dir=str(tmp_path))
        quantifier = RelationQuantifier(
            executor=executor, max_combinations=MAX_COMBINATIONS,
            telemetry=telemetry)
        quantifier.quantify(model)
        run = telemetry.registry.counter_total("modelbuild.probes_run")
        cached = telemetry.registry.counter_total("modelbuild.probes_cached")
        assert run > 0 and cached == 0

        warm_executor = build_probe_executor("dnsmasq", cache=True,
                                             cache_dir=str(tmp_path))
        warm_telemetry = Telemetry.from_config(TelemetryConfig(enabled=True))
        RelationQuantifier(
            executor=warm_executor, max_combinations=MAX_COMBINATIONS,
            telemetry=warm_telemetry).quantify(model)
        assert warm_telemetry.registry.counter_total(
            "modelbuild.probes_run") == 0
        assert warm_telemetry.registry.counter_total(
            "modelbuild.probes_cached") == run


# ---------------------------------------------------------------------------
# The report's pickled form (checkpoints re-pickle it on every save)
# ---------------------------------------------------------------------------

_REPORT_FIELDS = ("probes", "raw_weights", "best_values",
                  "entity_fingerprints", "carried_pairs")


def _dnsmasq_report(path, tmp_path):
    model = extract_model("dnsmasq")
    if path == "serial":
        probe = startup_probe_for(get_target("dnsmasq").target_cls,
                                  on_fault=[].append)
        quantifier = RelationQuantifier(probe, max_combinations=MAX_COMBINATIONS)
    elif path == "workers=2":
        quantifier = RelationQuantifier(
            executor=build_probe_executor("dnsmasq", workers=2),
            max_combinations=MAX_COMBINATIONS)
    else:
        cache_dir = str(tmp_path)
        RelationQuantifier(
            executor=build_probe_executor("dnsmasq", cache=True,
                                          cache_dir=cache_dir),
            max_combinations=MAX_COMBINATIONS).quantify(model)
        executor = build_probe_executor("dnsmasq", cache=True,
                                        cache_dir=cache_dir)
        quantifier = RelationQuantifier(executor=executor,
                                        max_combinations=MAX_COMBINATIONS)
    _, report = quantifier.quantify(model)
    if path == "warm-cache":
        assert executor.stats["executed"] == 0
    return report


def _assert_sites_shared(report):
    """Equal site names and equal site sets are one object each."""
    site_sets = [record.sites for record in report.probes]
    names = [site for sites in site_sets for site in sites]
    assert len({id(sites) for sites in site_sets}) == len(set(site_sets))
    assert len({id(name) for name in names}) == len(set(names))


class TestReportPickling:
    @pytest.mark.parametrize("path", ["serial", "workers=2", "warm-cache"])
    def test_round_trip_keeps_every_field_and_the_sharing(self, path,
                                                          tmp_path):
        report = _dnsmasq_report(path, tmp_path)
        assert report.launches > 0
        _assert_sites_shared(report)

        restored = pickle.loads(pickle.dumps(report))
        for name in _REPORT_FIELDS:
            assert getattr(restored, name) == getattr(report, name), name
        assert all(isinstance(record, ProbeRecord)
                   for record in restored.probes)
        assert restored.launches == report.launches
        assert restored.failures == report.failures
        _assert_sites_shared(restored)


# ---------------------------------------------------------------------------
# Incremental re-quantification
# ---------------------------------------------------------------------------

_NAMES = ("alpha", "beta", "gamma", "delta")


def _digest(token):
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def _make_probe(log=None):
    """Deterministic synthetic startup: hash-derived feature/synergy sites.

    Uses sha256 (not Python's salted ``hash``) so site sets are stable
    across processes and hypothesis replays.
    """

    def probe(assignment):
        if log is not None:
            log.append(dict(assignment))
        sites = {"base"}
        items = sorted(assignment.items())
        for name, value in items:
            digest = _digest("%s=%r" % (name, value))
            for i in range(1 + int(digest[0], 16) % 3):
                sites.add("%s#%s" % (name, digest[i * 2:i * 2 + 2]))
        for (name_a, val_a), (name_b, val_b) in itertools.combinations(items, 2):
            digest = _digest("%s=%r|%s=%r" % (name_a, val_a, name_b, val_b))
            if int(digest[0], 16) % 2:
                sites.add("pair#" + digest[:8])
        return sites

    return probe


def _values():
    return st.lists(st.integers(0, 4), min_size=1, max_size=3,
                    unique=True).map(tuple)


@st.composite
def _model_edit(draw):
    count = draw(st.integers(3, 4))
    values = [draw(_values()) for _ in range(count)]
    changed_index = draw(st.integers(0, count - 1))
    new_values = draw(
        _values().filter(lambda v: v != values[changed_index]))
    return values, changed_index, new_values


def _build_model(values):
    return ConfigurationModel([
        ConfigEntity(name, ValueType.ENUM, Flag.MUTABLE, vals)
        for name, vals in zip(_NAMES, values)
    ])


class TestRequantify:
    @settings(deadline=None, max_examples=25)
    @given(_model_edit())
    def test_incremental_equals_full(self, case):
        values, changed_index, new_values = case
        changed_name = _NAMES[changed_index]
        after_values = list(values)
        after_values[changed_index] = new_values

        log = []
        quantifier = RelationQuantifier(_make_probe(log), max_combinations=6)
        _, previous = quantifier.quantify(_build_model(values))

        log.clear()
        incremental = quantifier.requantify(_build_model(after_values),
                                            previous)
        pair_probes = [a for a in log if len(a) == 2]
        assert pair_probes, "the changed entity's pairs must re-probe"
        assert all(changed_name in a for a in pair_probes)

        full = RelationQuantifier(
            _make_probe(), max_combinations=6).quantify(
                _build_model(after_values))
        # Launch counts differ by design (that is the saving); the model
        # itself must match exactly. Best values match up to exact score
        # ties, where fold order legitimately differs — so compare the
        # achieved scores, and require the incremental pick to attain the
        # full run's score.
        incremental_snap, full_snap = _snapshot(incremental), _snapshot(full)
        assert incremental_snap["raw"] == full_snap["raw"]
        assert incremental_snap["edges"] == full_snap["edges"]
        assert incremental_snap["launches"] <= full_snap["launches"]
        inc_report, full_report = incremental[1], full[1]
        assert inc_report._best_scores == full_report._best_scores
        for name, value in inc_report.best_values.items():
            score = inc_report._best_scores[name]
            assert any(rec.assignment.get(name) == value
                       and rec.branches == score
                       for rec in full_report.probes)

        n = len(values)
        assert incremental[1].carried_pairs == (n - 1) * (n - 2) // 2
        assert quantifier.last_run_stats["carried_pairs"] == \
            incremental[1].carried_pairs

    def test_unchanged_model_probes_nothing(self):
        values = [(0, 1), (2,), (3, 4)]
        log = []
        quantifier = RelationQuantifier(_make_probe(log), max_combinations=6)
        model = _build_model(values)
        result, previous = quantifier.quantify(model)

        log.clear()
        incremental_model, report = quantifier.requantify(model, previous)
        assert log == []
        assert report.launches == 0
        assert report.carried_pairs == 3
        assert sorted(incremental_model.edges_by_weight()) == \
            sorted(result.edges_by_weight())

    def test_explicit_changed_overrides_fingerprints(self):
        values = [(0, 1), (2,), (3, 4)]
        log = []
        quantifier = RelationQuantifier(_make_probe(log), max_combinations=6)
        model = _build_model(values)
        quantifier.quantify(model)
        _, previous = quantifier.quantify(model)

        log.clear()
        quantifier.requantify(model, previous, changed=["beta"])
        pair_probes = [a for a in log if len(a) == 2]
        assert pair_probes and all("beta" in a for a in pair_probes)
