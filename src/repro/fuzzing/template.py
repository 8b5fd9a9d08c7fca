"""Compiled per-model templates: the one implementation of
:class:`~repro.fuzzing.datamodel.Message`.

A :class:`ModelTemplate` compiles each model **once** (cached in a
``WeakKeyDictionary`` keyed by the model object, so a template lives
exactly as long as its model) into:

- ``default_values`` / ``default_selections`` — ready-made dicts a new
  message copies;
- ``elements`` — every dot-path the model can address, mapped straight
  to its element (all choice options included), making ``element_at``
  a dict probe;
- ``option_state`` — per ``(choice_path, option_name)`` the default
  values/selections of that option subtree, so ``select()`` is two
  dict updates;
- per-selection-state :class:`_SelectionState` records (cached by the
  sorted selection items) holding the active leaf paths, the mutation
  target tuple, the leaf span of every active element path, and a
  generated encode function with every leaf inlined and its
  ``struct.Struct`` precompiled.  The function returns one ``bytes``
  per leaf, and each computed size is filled in from the lengths of
  its span's leaves, so a message is encoded in one pass.

Compilation runs when the :class:`~repro.fuzzing.datamodel.DataModel`
is built and raises :class:`~repro.errors.FuzzingError` for a model it
cannot handle: an element type other than ``Number``, ``Str``,
``Blob``, ``Size``, ``Block`` or ``Choice``, or a size whose ``of``

- does not resolve to an element of the model;
- sits under a (choice, option) the size itself does not sit under, so
  it could be inactive while the size is active;
- contains the size itself;
- contains another size whose span in turn contains it (a cycle).

Under those rules every size's span is active whenever the size is, in
every selection state.

The last two rules are a policy choice, not something the encoder
needs: a computed size counts every ``Number`` or ``Size`` leaf in its
span at its fixed width and never reads another size's value, so it
could encode a self-inclusive length (an IPv4-style total length) or
sizes that enclose each other. They are rejected because the recursive
walk this compiler replaced could not encode them (it recursed without
end), so no model that used to work is refused, and because every model
that is accepted can then be checked byte for byte against that walk,
which the tests keep as their reference encoder.

Templates are derived data: :class:`~repro.fuzzing.datamodel.Message`
never pickles its ``_tpl`` (checkpoints stay template-free) and
re-resolves it on unpickle.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, FrozenSet, Tuple
from weakref import WeakKeyDictionary

from repro.errors import FuzzingError
from repro.fuzzing.datamodel import (
    Blob,
    Block,
    Choice,
    DataModel,
    Number,
    Size,
    Str,
)

_MISSING = object()
_STRUCT_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}


def _join(prefix: str, name: str) -> str:
    return name if not prefix else prefix + "." + name


def _within(path: str, span: str) -> bool:
    """Whether ``path`` is ``span`` or lies below it."""
    return not span or path == span or path.startswith(span + ".")


# -- leaf code generation ----------------------------------------------------
# Each leaf contributes a few statements to a per-selection-state encode
# function compiled once with exec(); constants (masks, lengths, paths)
# are baked in as literals and per-leaf objects (struct packers, bound
# default_value methods) are bound through the generated function's
# globals.  Leaf ``index`` binds its bytes to the local ``b<index>`` and
# the function returns the list of them in document order.  A leaf
# without a value encodes its element's ``default_value()``.


def _emit_number(index, path, element, lines, ns):
    code = _STRUCT_CODES[element.bits]
    if not element.signed:
        code = code.upper()
    ns["p%d" % index] = struct.Struct(
        (">" if element.endian == "big" else "<") + code).pack
    ns["d%d" % index] = element.default_value
    mask = (1 << element.bits) - 1
    lines.append("    v = g(%r, _M)" % path)
    lines.append("    if v is _M: v = d%d()" % index)
    if element.signed:
        half = 1 << (element.bits - 1)
        lines.append("    v = int(v) & %d" % mask)
        lines.append("    if v >= %d: v -= %d" % (half, 1 << element.bits))
        lines.append("    b%d = p%d(v)" % (index, index))
    else:
        lines.append("    b%d = p%d(int(v) & %d)" % (index, index, mask))


def _emit_str(index, path, element, lines, ns):
    ns["d%d" % index] = element.default_value
    limit = element.max_length
    lines.append("    v = g(%r, _M)" % path)
    lines.append("    if v is _M: v = d%d()" % index)
    lines.append(
        "    b%d = (v[:%d] if isinstance(v, bytes)"
        " else str(v).encode('utf-8', 'replace')[:%d])" % (index, limit, limit))


def _emit_blob(index, path, element, lines, ns):
    ns["d%d" % index] = element.default_value
    lines.append("    v = g(%r, _M)" % path)
    lines.append("    if v is _M: v = d%d()" % index)
    lines.append("    b%d = bytes(v)[:%d]" % (index, element.max_length))


def _emit_size(index, path, element, lines, ns):
    # A pinned value encodes in place; a computed one (a size's default
    # value is None, so a missing entry reads as "compute") is filled
    # in by _emit_size_total once every leaf of its span is encoded.
    ns["p%d" % index] = struct.Struct(
        (">" if element.endian == "big" else "<")
        + _STRUCT_CODES[element.bits].upper()).pack
    lines.append("    v = g(%r)" % path)
    lines.append("    b%d = None if v is None else p%d(int(v) & %d)"
                 % (index, index, (1 << element.bits) - 1))


def _emit_size_total(index, element, span, leaves, lines):
    """The computed value of size ``index``: the byte length of its
    span plus ``adjust``.  Numbers and sizes encode to a fixed
    ``bits // 8`` bytes whatever their value, so only strings and blobs
    are measured at run time."""
    fixed = element.adjust
    measured = []
    for position in range(*span):
        leaf = leaves[position]
        if type(leaf) in (Number, Size):
            fixed += leaf.bits // 8
        else:
            measured.append("len(b%d)" % position)
    if fixed or not measured:
        measured.append(str(fixed))
    total = " + ".join(measured)
    lines.append("    if b%d is None: b%d = p%d((%s) & %d)" % (
        index, index, index, total, (1 << element.bits) - 1))


_LEAF_EMITTERS = {
    Number: _emit_number,
    Str: _emit_str,
    Blob: _emit_blob,
    Size: _emit_size,
}


class _SelectionState:
    """The per-selection-assignment compilation products."""

    __slots__ = ("field_paths", "target_paths", "spans", "encode",
                 "default_parts", "default_bytes")

    def __init__(self, field_paths, target_paths, spans, encode):
        #: Active leaf paths in document order (``fields()`` order).
        self.field_paths = field_paths
        #: ``field_paths`` + sorted choice paths: the mutation targets,
        #: matching RandomFieldStrategy's ``fields() + choice_paths()``.
        self.target_paths = target_paths
        #: Active element path -> ``(first, end)`` leaf span.
        self.spans = spans
        #: ``encode(values) -> [bytes]``: the generated encode function
        #: for this selection assignment, one entry per leaf in
        #: document order.
        self.encode = encode
        #: Lazily cached encoding of a pristine (never-written) message
        #: in this state — every clean message encodes identically.
        self.default_parts = None
        self.default_bytes = None


class ModelTemplate:
    """Everything derivable from a model ahead of the hot loop."""

    def __init__(self, model: DataModel):
        #: The model's root, not the model: ``_TEMPLATES`` is keyed
        #: weakly by the model, so a strong reference here would keep
        #: every model (and its compiled encoders) alive for good.
        self.root = model.root
        self.default_values: Dict[str, Any] = {}
        self.default_selections: Dict[str, str] = {}
        #: Every addressable dot-path (all options included) -> element.
        self.elements = {"": model.root}
        #: (choice_path, option_name) -> (values, selections) defaults
        #: of that option subtree, i.e. what ``Message.select`` writes.
        self.option_state: Dict[Tuple[str, str], tuple] = {}
        self._leaves: Dict[str, Any] = {}
        self._states: Dict[tuple, _SelectionState] = {}
        self._compile(model.root, "", self.default_values, self.default_selections)
        self._check_sizes()

    # -- compilation -------------------------------------------------------

    def _compile(self, element, prefix, values, selections) -> None:
        kind = type(element)
        if kind is Block:
            for child in element.children:
                child_prefix = _join(prefix, child.name)
                self.elements[child_prefix] = child
                self._compile(child, child_prefix, values, selections)
        elif kind is Choice:
            default_name = element.default_value()
            selections[prefix] = default_name
            for option in element.options:
                option_prefix = _join(prefix, option.name)
                self.elements[option_prefix] = option
                option_values: Dict[str, Any] = {}
                option_selections: Dict[str, str] = {}
                self._compile(option, option_prefix, option_values, option_selections)
                self.option_state[(prefix, option.name)] = (
                    option_values, option_selections)
                if option.name == default_name:
                    values.update(option_values)
                    selections.update(option_selections)
        elif kind in _LEAF_EMITTERS:
            values[prefix] = element.default_value()
            self._leaves[prefix] = element
        else:
            # Unknown (or subclassed) element type: the compiler knows
            # how to encode the six stock kinds only.
            raise FuzzingError(
                "element %r has type %s; a data model holds only Number, "
                "Str, Blob, Size, Block and Choice elements"
                % (prefix, kind.__name__))

    def _options_on(self, path: str) -> FrozenSet[Tuple[str, str]]:
        """The (choice path, option name) pairs ``path`` lies under."""
        parts = path.split(".") if path else []
        return frozenset(
            (".".join(parts[:depth]), parts[depth])
            for depth in range(1, len(parts))
            if type(self.elements[".".join(parts[:depth])]) is Choice)

    def _check_sizes(self) -> None:
        """Reject any size whose span is not active whenever the size
        is, or that lies in its own span, directly or through other
        sizes' spans (the latter by policy; see the module docstring)."""
        sizes = {path: leaf for path, leaf in self._leaves.items()
                 if type(leaf) is Size}
        for path, size in sizes.items():
            if size.of not in self.elements:
                raise FuzzingError("size %r has of=%r, which is not an "
                                   "element of the model" % (path, size.of))
            if not self._options_on(size.of) <= self._options_on(path):
                raise FuzzingError("size %r has of=%r, which lies under a "
                                   "choice option the size does not"
                                   % (path, size.of))
            if _within(path, size.of):
                raise FuzzingError("size %r lies inside of=%r, the span it "
                                   "measures" % (path, size.of))
        # Size -> the sizes inside its span; a cycle makes every size on
        # it depend on its own value.
        inner = {path: [other for other in sizes if _within(other, size.of)]
                 for path, size in sizes.items()}
        done = set()

        def visit(path, trail):
            if path in trail:
                raise FuzzingError("sizes %s measure each other's spans"
                                   % " -> ".join(trail + [path]))
            if path not in done:
                for other in inner[path]:
                    visit(other, trail + [path])
                done.add(path)

        for path in sizes:
            visit(path, [])

    def state_for(self, selections: Dict[str, str]) -> _SelectionState:
        """The compiled state for a message's selection assignment."""
        key = tuple(sorted(selections.items())) if selections else ()
        state = self._states.get(key)
        if state is None:
            state = self._build_state(selections, key)
            self._states[key] = state
        return state

    def _build_state(self, selections, key) -> _SelectionState:
        field_paths = []
        append = field_paths.append
        spans: Dict[str, Tuple[int, int]] = {}

        def walk(element, prefix):
            first = len(field_paths)
            kind = type(element)
            if kind is Block:
                for child in element.children:
                    walk(child, _join(prefix, child.name))
            elif kind is Choice:
                selected = selections.get(prefix, element.default_value())
                chosen = element.option(selected)
                walk(chosen, _join(prefix, chosen.name))
            else:
                append(prefix)
            spans[prefix] = (first, len(field_paths))

        walk(self.root, "")
        leaves = [self._leaves[path] for path in field_paths]
        lines = [
            "def _encode(values):",
            "    g = values.get",
        ]
        namespace: Dict[str, Any] = {"_M": _MISSING}
        totals = []
        for index, (path, element) in enumerate(zip(field_paths, leaves)):
            _LEAF_EMITTERS[type(element)](index, path, element, lines, namespace)
            if type(element) is Size:
                # _check_sizes proved the span active in every state the
                # size is active in.
                _emit_size_total(index, element, spans[element.of], leaves,
                                 totals)
        lines.extend(totals)
        lines.append("    return [%s]" % ", ".join(
            "b%d" % index for index in range(len(field_paths))))
        exec("\n".join(lines), namespace)  # noqa: S102 - sources are
        # generated from the model tree alone, nothing user-controlled.
        return _SelectionState(
            tuple(field_paths),
            tuple(field_paths) + tuple(path for path, _ in key),
            spans,
            namespace["_encode"],
        )


_TEMPLATES: "WeakKeyDictionary[DataModel, ModelTemplate]" = WeakKeyDictionary()


def template_for(model: DataModel) -> ModelTemplate:
    """The compiled template for ``model``, compiled on first use.

    Raises:
        FuzzingError: The model does not compile (see the module
            docstring for the rules).
    """
    template = _TEMPLATES.get(model)
    if template is None:
        template = _TEMPLATES[model] = ModelTemplate(model)
    return template
