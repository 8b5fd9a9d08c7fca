"""Peach-style Pit XML loader.

The paper keeps fuzzers fair by giving them "the same Pit files". Our
pits are Python factories, but this module also accepts the classic XML
form, so externally authored models can be dropped in::

    <Peach>
      <DataModel name="Connect">
        <Number name="header" size="8" value="16"/>
        <Size name="remaining" of="body" size="8"/>
        <Block name="body">
          <String name="proto" value="MQTT"/>
        </Block>
      </DataModel>
      <StateModel name="session" initialState="start">
        <State name="start">
          <Action type="send" dataModel="Connect"/>
          <Transition to="done" weight="2"/>
        </State>
        <State name="done"/>
      </StateModel>
    </Peach>

Supported elements: Number (size/value/endian/signed), String
(value/maxLength), Blob (valueHex), Size (of/size/endian/adjust), Block,
Choice; Action type="send"; weighted Transition.

A ``size`` is 8, 16, 32 or 64 bits. A Size's ``of`` is the dot-path of
an element from the data model's root (``body`` or ``body.proto``, with
a choice's option named in the path) and must be active whenever the
Size is: it may not lie under a choice option that the Size does not lie
under. No Size may lie inside the span it measures, directly or through
other Sizes' spans (a policy; see :mod:`repro.fuzzing.template`). Any
invalid attribute or Size relation is a
:class:`~repro.errors.FuzzingError` naming the element.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Callable, List

from repro.errors import FuzzingError
from repro.fuzzing.datamodel import (
    Blob,
    Block,
    Choice,
    DataElement,
    DataModel,
    Number,
    Size,
    Str,
)
from repro.fuzzing.statemodel import Action, State, StateModel


def _parse_bool(text: str) -> bool:
    return text.strip().lower() in ("true", "1", "yes")


def _parse_hex(text: str) -> bytes:
    return bytes.fromhex(text.replace(" ", ""))


def _where(node: ET.Element) -> str:
    name = node.get("name")
    return "<%s name=%r>" % (node.tag, name) if name else "<%s>" % node.tag


def _attr(node: ET.Element, attribute: str, default: str,
          parse: Callable[[str], Any]) -> Any:
    """``parse`` of the attribute's text; a value it rejects is a
    :class:`FuzzingError` naming the element and the attribute."""
    text = node.get(attribute, default)
    try:
        return parse(text)
    except ValueError:
        raise FuzzingError("%s has an invalid %s=%r"
                           % (_where(node), attribute, text)) from None


def _construct(node: ET.Element, build: Callable[..., Any], *args: Any,
               **kwargs: Any) -> Any:
    """``build(*args, **kwargs)``; a value it rejects (a width, a byte
    order or a transition weight) is re-raised naming the element."""
    try:
        return build(*args, **kwargs)
    except FuzzingError as exc:
        raise FuzzingError("%s: %s" % (_where(node), exc)) from None


def _build_element(node: ET.Element) -> DataElement:
    tag = node.tag
    name = node.get("name")
    if not name:
        raise FuzzingError("<%s> requires a name attribute" % tag)
    if tag == "Number":
        return _construct(
            node, Number, name,
            bits=_attr(node, "size", "8", int),
            default=_attr(node, "value", "0", lambda text: int(text, 0)),
            endian=node.get("endian", "big"),
            signed=_parse_bool(node.get("signed", "false")),
        )
    if tag == "String":
        return Str(
            name,
            default=node.get("value", ""),
            max_length=_attr(node, "maxLength", "4096", int),
        )
    if tag == "Blob":
        return Blob(name, default=_attr(node, "valueHex", "", _parse_hex),
                    max_length=_attr(node, "maxLength", "65536", int))
    if tag == "Size":
        of = node.get("of")
        if not of:
            raise FuzzingError("<Size name=%r> requires an 'of' attribute" % name)
        return _construct(
            node, Size, name,
            of=of,
            bits=_attr(node, "size", "16", int),
            endian=node.get("endian", "big"),
            adjust=_attr(node, "adjust", "0", int),
        )
    if tag == "Block":
        return Block(name, [_build_element(child) for child in node])
    if tag == "Choice":
        return Choice(name, [_build_element(child) for child in node])
    raise FuzzingError("unsupported Pit element <%s>" % tag)


def _build_data_model(node: ET.Element) -> DataModel:
    name = node.get("name")
    if not name:
        raise FuzzingError("<DataModel> requires a name attribute")
    children = [_build_element(child) for child in node]
    try:
        return DataModel(name, children)
    except FuzzingError as exc:
        raise FuzzingError("<DataModel name=%r>: %s" % (name, exc)) from None


def _build_state(node: ET.Element) -> State:
    name = node.get("name")
    if not name:
        raise FuzzingError("<State> requires a name attribute")
    state = State(name)
    for child in node:
        if child.tag == "Action":
            kind = child.get("type", "send")
            if kind == "send":
                state.actions.append(Action("send", child.get("dataModel")))
            elif kind == "recv":
                state.actions.append(Action("recv"))
            else:
                raise FuzzingError("unsupported Action type %r" % kind)
        elif child.tag == "Transition":
            target = child.get("to")
            if not target:
                raise FuzzingError("<Transition> requires a 'to' attribute")
            _construct(child, state.add_transition, target,
                       _attr(child, "weight", "1", float))
        else:
            raise FuzzingError("unsupported State child <%s>" % child.tag)
    return state


def load_pit(xml_text: str) -> StateModel:
    """Parse a Pit XML document into a :class:`StateModel`."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise FuzzingError("invalid Pit XML: %s" % exc)
    data_models: List[DataModel] = []
    state_model_node = None
    for child in root:
        if child.tag == "DataModel":
            data_models.append(_build_data_model(child))
        elif child.tag == "StateModel":
            if state_model_node is not None:
                raise FuzzingError("multiple <StateModel> elements")
            state_model_node = child
        else:
            raise FuzzingError("unsupported top-level element <%s>" % child.tag)
    if state_model_node is None:
        raise FuzzingError("Pit has no <StateModel>")
    name = state_model_node.get("name")
    initial = state_model_node.get("initialState")
    if not name or not initial:
        raise FuzzingError("<StateModel> requires name and initialState")
    states = [_build_state(node) for node in state_model_node
              if node.tag == "State"]
    return StateModel(name, initial, states, data_models)
