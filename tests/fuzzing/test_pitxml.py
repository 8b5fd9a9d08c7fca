"""Tests for the Pit XML loader."""

import pytest

from repro.errors import FuzzingError
from repro.fuzzing.pitxml import load_pit

_MINIMAL = """
<Peach>
  <DataModel name="Msg">
    <Number name="header" size="8" value="16"/>
    <Size name="len" of="body" size="8"/>
    <Block name="body">
      <String name="proto" value="MQTT"/>
      <Blob name="payload" valueHex="cafe"/>
    </Block>
  </DataModel>
  <StateModel name="session" initialState="start">
    <State name="start">
      <Action type="send" dataModel="Msg"/>
      <Transition to="done" weight="2"/>
    </State>
    <State name="done"/>
  </StateModel>
</Peach>
"""


class TestLoadPit:
    def test_minimal_pit_loads(self):
        model = load_pit(_MINIMAL)
        assert model.name == "session"
        assert model.initial == "start"
        assert model.states() == ["start", "done"]

    def test_data_model_encodes(self):
        model = load_pit(_MINIMAL)
        payload = model.data_model("Msg").build().encode()
        assert payload[0] == 16
        assert payload[1] == len(b"MQTT\xca\xfe")
        assert payload[2:].startswith(b"MQTT")
        assert payload.endswith(b"\xca\xfe")

    def test_transitions_weighted(self):
        model = load_pit(_MINIMAL)
        assert model.state("start").transitions == [("done", 2.0)]

    def test_choice_element(self):
        xml = """
        <Peach>
          <DataModel name="M">
            <Choice name="pick">
              <Blob name="a" valueHex="01"/>
              <Blob name="b" valueHex="02"/>
            </Choice>
          </DataModel>
          <StateModel name="s" initialState="x">
            <State name="x"><Action type="send" dataModel="M"/></State>
          </StateModel>
        </Peach>
        """
        model = load_pit(xml)
        message = model.data_model("M").build()
        assert message.encode() == b"\x01"
        message.select("pick", "b")
        assert message.encode() == b"\x02"

    def test_signed_little_endian_number(self):
        xml = """
        <Peach>
          <DataModel name="M">
            <Number name="n" size="16" value="-2" endian="little" signed="true"/>
          </DataModel>
          <StateModel name="s" initialState="x">
            <State name="x"><Action type="send" dataModel="M"/></State>
          </StateModel>
        </Peach>
        """
        assert load_pit(xml).data_model("M").build().encode() == b"\xfe\xff"

    def test_hex_number_value(self):
        xml = """
        <Peach>
          <DataModel name="M"><Number name="n" size="8" value="0x30"/></DataModel>
          <StateModel name="s" initialState="x">
            <State name="x"><Action type="send" dataModel="M"/></State>
          </StateModel>
        </Peach>
        """
        assert load_pit(xml).data_model("M").build().encode() == b"\x30"

    def test_loaded_pit_drives_engine(self):
        from repro.fuzzing.engine import DirectTransport, FuzzEngine
        from repro.targets.mqtt.server import MosquittoTarget

        model = load_pit(_MINIMAL)
        target = MosquittoTarget()
        target.startup({})
        engine = FuzzEngine(model, DirectTransport(target), target.cov, seed=1)
        for _ in range(50):
            engine.run_iteration()
        assert len(target.cov.total) > 0


class TestErrors:
    def test_invalid_xml(self):
        with pytest.raises(FuzzingError):
            load_pit("<broken")

    def test_missing_state_model(self):
        with pytest.raises(FuzzingError):
            load_pit("<Peach><DataModel name='m'/></Peach>")

    def test_unknown_element(self):
        xml = """
        <Peach>
          <DataModel name="M"><Widget name="w"/></DataModel>
          <StateModel name="s" initialState="x"><State name="x"/></StateModel>
        </Peach>
        """
        with pytest.raises(FuzzingError):
            load_pit(xml)

    def test_size_without_of(self):
        xml = """
        <Peach>
          <DataModel name="M"><Size name="l"/></DataModel>
          <StateModel name="s" initialState="x"><State name="x"/></StateModel>
        </Peach>
        """
        with pytest.raises(FuzzingError):
            load_pit(xml)

    def test_unknown_action_type(self):
        xml = """
        <Peach>
          <DataModel name="M"><Number name="n"/></DataModel>
          <StateModel name="s" initialState="x">
            <State name="x"><Action type="teleport" dataModel="M"/></State>
          </StateModel>
        </Peach>
        """
        with pytest.raises(FuzzingError):
            load_pit(xml)

    def test_send_to_unknown_data_model(self):
        xml = """
        <Peach>
          <DataModel name="M"><Number name="n"/></DataModel>
          <StateModel name="s" initialState="x">
            <State name="x"><Action type="send" dataModel="Ghost"/></State>
          </StateModel>
        </Peach>
        """
        with pytest.raises(FuzzingError):
            load_pit(xml)

    @pytest.mark.parametrize("element, message", [
        ('<Number name="n" size="abc"/>', "<Number name='n'> has an invalid size='abc'"),
        ('<Number name="n" size="12"/>', "<Number name='n'>: unsupported size of 12 "
         "bits for 'n' (must be 8, 16, 32 or 64)"),
        ('<Number name="n" value="x"/>', "<Number name='n'> has an invalid value='x'"),
        ('<Number name="n" endian="middle"/>',
         "<Number name='n'>: endian must be 'big' or 'little' for 'n', not 'middle'"),
        ('<Blob name="b" valueHex="zz"/>', "<Blob name='b'> has an invalid valueHex='zz'"),
        ('<String name="s" maxLength="x"/>', "<String name='s'> has an invalid maxLength='x'"),
        ('<Size name="l" of="n" size="12"/><Number name="n"/>',
         "<Size name='l'>: unsupported size of 12 bits for 'l' (must be 8, 16, 32 or 64)"),
        ('<Size name="l" of="n" endian="middle"/><Number name="n"/>',
         "<Size name='l'>: endian must be 'big' or 'little' for 'l', not 'middle'"),
        ('<Size name="l" of="n" adjust="one"/><Number name="n"/>',
         "<Size name='l'> has an invalid adjust='one'"),
    ], ids=["size-not-int", "size-not-width", "value", "endian", "valueHex",
            "maxLength", "size-width", "size-endian", "adjust"])
    def test_invalid_attribute_names_element_and_attribute(self, element, message):
        xml = """
        <Peach>
          <DataModel name="M">%s</DataModel>
          <StateModel name="s" initialState="x"><State name="x"/></StateModel>
        </Peach>
        """ % element
        with pytest.raises(FuzzingError) as error:
            load_pit(xml)
        assert str(error.value) == message

    def test_invalid_transition_weight(self):
        xml = """
        <Peach>
          <DataModel name="M"><Number name="n"/></DataModel>
          <StateModel name="s" initialState="x">
            <State name="x"><Transition to="x" weight="x"/></State>
          </StateModel>
        </Peach>
        """
        with pytest.raises(FuzzingError, match=r"<Transition> has an invalid weight='x'"):
            load_pit(xml)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "0"])
    def test_unusable_transition_weight_names_the_transition(self, weight):
        xml = """
        <Peach>
          <DataModel name="M"><Number name="n"/></DataModel>
          <StateModel name="s" initialState="x">
            <State name="x"><Transition to="x" weight="%s"/></State>
          </StateModel>
        </Peach>
        """ % weight
        with pytest.raises(FuzzingError, match=r"<Transition>: transition weight must be "
                                               r"positive and finite"):
            load_pit(xml)

    @pytest.mark.parametrize("body, reason", [
        ('<Size name="l" of="nope"/>', r"size 'l' has of='nope', which is not an element"),
        ('<Block name="b"><Size name="l" of="b"/></Block>', r"size 'b.l' lies inside of='b'"),
        ('<Size name="l" of="c.two"/><Choice name="c"><Blob name="one"/>'
         '<Blob name="two"/></Choice>', r"size 'l' has of='c.two', which lies under a choice option"),
    ], ids=["unknown-of", "inside-own-span", "inactive-option"])
    def test_invalid_size_relation_fails_at_load(self, body, reason):
        xml = """
        <Peach>
          <DataModel name="M">%s</DataModel>
          <StateModel name="s" initialState="x"><State name="x"/></StateModel>
        </Peach>
        """ % body
        with pytest.raises(FuzzingError, match="<DataModel name='M'>: " + reason):
            load_pit(xml)
