"""Tests for the protocol pits (shared data/state models)."""

import random

import pytest

from repro.targets import get_target, target_entries, target_names


@pytest.fixture(scope="module")
def pits():
    return {entry.name: entry.state_model() for entry in target_entries()}


class TestRegistryAlignment:
    def test_every_target_has_a_pit(self, pits):
        assert set(pits) == set(target_names())

    def test_pits_are_freshly_constructed(self):
        entry = get_target("mosquitto")
        assert entry.state_model() is not entry.state_model()


class TestPitWellFormedness:
    def test_all_default_messages_encode(self, pits):
        for name, model in pits.items():
            for data_model in model.data_models():
                encoded = data_model.build().encode()
                assert isinstance(encoded, bytes), (name, data_model.name)
                assert encoded, (name, data_model.name)

    def test_all_walks_reach_send_actions(self, pits):
        rng = random.Random(0)
        for name, model in pits.items():
            sends = 0
            for _ in range(20):
                for state_name in model.walk(rng):
                    state = model.state(state_name)
                    sends += sum(1 for a in state.actions if a.kind == "send")
            assert sends > 0, name

    def test_all_pits_offer_multiple_paths(self, pits):
        for name, model in pits.items():
            assert len(model.simple_paths()) >= 2, name


class TestDefaultMessagesAccepted:
    """Default (unmutated) pit messages should mostly be protocol-valid."""

    @pytest.mark.parametrize("name", target_names())
    def test_default_session_produces_coverage_without_crash(self, name, pits):
        target_cls = get_target(name).target_cls
        target = target_cls()
        target.startup({})
        model = pits[name]
        rng = random.Random(1)
        for _ in range(10):
            for state_name in model.walk(rng):
                for action in model.state(state_name).actions:
                    if action.kind != "send":
                        continue
                    payload = model.data_model(action.data_model).build().encode()
                    target.handle_packet(payload)
        # Parsing the compliant defaults must exercise real branches, not
        # just the malformed-packet path.
        sites = [s for s in target.cov.total if "malformed" not in s]
        assert len(sites) > 10, name


class TestMqttPitSpecifics:
    def test_connect_encodes_valid_mqtt(self, pits):
        payload = pits["mosquitto"].data_model("Connect").build().encode()
        assert payload[0] == 0x10
        assert b"MQTT" in payload
        # Remaining length byte matches the body.
        assert payload[1] == len(payload) - 2

    def test_publish_qos2_has_mid(self, pits):
        payload = pits["mosquitto"].data_model("Publish2").build().encode()
        assert (payload[0] >> 1) & 0x03 == 2


class TestCoapPitSpecifics:
    def test_qblock_models_present(self, pits):
        names = {m.name for m in pits["libcoap"].data_models()}
        assert {"PutQBlockFirst", "PutQBlockLast"} <= names

    def test_get_parses_to_known_resource(self, pits):
        from repro.targets.coap.server import LibcoapTarget

        target = LibcoapTarget()
        target.startup({})
        payload = pits["libcoap"].data_model("Get").build().encode()
        response = target.handle_packet(payload)
        assert b"21.5" in response


class TestDnsPitSpecifics:
    def test_query_answered(self, pits):
        from repro.targets.dns.server import DnsmasqTarget

        target = DnsmasqTarget()
        target.startup({})
        payload = pits["dnsmasq"].data_model("QueryA").build().encode()
        response = target.handle_packet(payload)
        assert b"192.168.1.9" in response
