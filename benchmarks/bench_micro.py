"""Micro-benchmarks: the implementation cost of CMFuzz's own machinery.

These quantify the overhead the framework adds on top of plain fuzzing —
extraction, relation probing, allocation, message generation — the costs
an adopter of the paper's technique pays once per campaign.
"""

import random


from repro.core.allocation import allocate
from repro.core.entity import ConfigEntity, Flag, ValueType
from repro.core.extraction import extract_configuration_items, extract_entities
from repro.core.model import ConfigurationModel, RelationAwareModel
from repro.core.relation import RelationQuantifier
from repro.fuzzing.strategies import RandomFieldStrategy
from repro.pits.mqtt import state_model
from repro.targets.base import startup_probe_for
from repro.targets.mqtt.server import MosquittoTarget


def test_micro_extraction(benchmark):
    """Algorithm 1 over the Mosquitto configuration surface."""
    sources = MosquittoTarget.config_sources()
    items = benchmark(lambda: extract_configuration_items(sources))
    assert len(items) > 20


def test_micro_entity_construction(benchmark):
    sources = MosquittoTarget.config_sources()
    overrides = MosquittoTarget.entity_overrides()
    entities = benchmark(lambda: extract_entities(sources, overrides))
    assert entities


def test_micro_startup_probe(benchmark):
    """One startup coverage probe (launch + instrumented init)."""
    probe = startup_probe_for(MosquittoTarget)
    coverage = benchmark(lambda: probe({"persistence": True, "tls_enabled": True}))
    assert len(coverage) > 5


def test_micro_pair_quantification(benchmark):
    """Quantifying a two-entity model (one pair, all value combinations)."""
    model = ConfigurationModel([
        ConfigEntity("persistence", ValueType.BOOLEAN, Flag.MUTABLE, (True, False)),
        ConfigEntity("autosave_interval", ValueType.NUMBER, Flag.MUTABLE, (1800, 0)),
    ])

    def quantify():
        quantifier = RelationQuantifier(startup_probe_for(MosquittoTarget),
                                        max_combinations=4)
        return quantifier.quantify(model)[1]

    report = benchmark(quantify)
    assert report.launches >= 4


def test_micro_allocation(benchmark):
    """Algorithm 2 on a 60-entity, ~350-edge relation graph."""
    rng = random.Random(5)
    names = ["entity%02d" % i for i in range(60)]
    model = ConfigurationModel(
        [ConfigEntity(n, ValueType.BOOLEAN, Flag.MUTABLE, (True, False)) for n in names]
    )
    relation_model = RelationAwareModel(model)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if rng.random() < 0.2:
                relation_model.set_weight(a, b, rng.random())

    result = benchmark(lambda: allocate(relation_model, 4))
    assert len(result.assignment) == 60


def test_micro_message_generation(benchmark):
    """Build + mutate + encode one MQTT CONNECT (the fuzzing hot loop)."""
    model = state_model().data_model("Connect")
    strategy = RandomFieldStrategy(valid_ratio=0.0)
    rng = random.Random(3)

    def one_message():
        return strategy.apply(model.build(rng), rng).encode()

    payload = benchmark(one_message)
    assert isinstance(payload, bytes)


def test_micro_packet_handling(benchmark):
    """Target-side parse cost for a compliant CONNECT."""
    target = MosquittoTarget()
    target.startup({})
    payload = state_model().data_model("Connect").build().encode()

    def handle():
        target.reset_session()
        return target.handle_packet(payload)

    response = benchmark(handle)
    assert response
