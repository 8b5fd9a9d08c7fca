"""Compiled per-model templates for :class:`~repro.fuzzing.datamodel.Message`.

Without a template, a message re-walks its
:class:`~repro.fuzzing.datamodel.DataModel` tree for every operation — ``_populate`` at build time,
``_collect`` for ``fields()``, part-by-part resolution in
``element_at``, a full recursive descent (with per-call
``struct.pack`` format parsing) in ``encode()``.  The tree is immutable
per campaign, so all of that is recomputed constants.

A :class:`ModelTemplate` compiles each model **once** (cached in a
``WeakKeyDictionary`` keyed by the model object, so a template lives
exactly as long as its model) into:

- ``default_values`` / ``default_selections`` — ready-made dicts a new
  message copies instead of walking the tree;
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
  per leaf; a size-of relation whose span is active, excludes the size
  and holds only such sizes is computed inside it from the lengths of
  the span's leaves, so a message is encoded in one pass.  Any other
  size keeps the ``message.encode_path`` call of the tree walk.

Templates are derived data: :class:`~repro.fuzzing.datamodel.Message`
never pickles its ``_tpl`` (checkpoints stay template-free) and
re-resolves it on unpickle.  Models containing element types the
compiler does not understand raise :class:`UntemplatableModel`
internally and fall back to the recursive tree walk wholesale —
behaviour, including error behaviour, stays identical either way.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional, Tuple
from weakref import WeakKeyDictionary

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


class UntemplatableModel(Exception):
    """The model contains an element the template compiler cannot prove
    equivalent encode/populate behaviour for; use the tree walk."""


def _join(prefix: str, name: str) -> str:
    return name if not prefix else prefix + "." + name


# -- leaf code generation ----------------------------------------------------
# Each leaf contributes a few statements to a per-selection-state encode
# function compiled once with exec(); constants (masks, lengths, paths)
# are baked in as literals and per-leaf objects (struct packers, bound
# default_value methods) are bound through the generated function's
# globals.  Leaf ``index`` binds its bytes to the local ``b<index>`` and
# the function returns the list of them in document order.  The
# statements mirror Message._encode_element's
# ``values.get(path, default_value())`` + element.encode_value semantics
# exactly; only the recursion, per-call format parsing and per-leaf
# Python calls disappear.


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


def _size_packer(element):
    # _compile validated bits/endian, so the Number that the tree walk
    # would build at encode time cannot fail here.
    return struct.Struct((">" if element.endian == "big" else "<")
                         + _STRUCT_CODES[element.bits].upper()).pack


def _emit_size(index, path, element, lines, ns):
    # A size's default value is None, so a missing entry reads as
    # "compute".
    ns["p%d" % index] = _size_packer(element)
    mask = (1 << element.bits) - 1
    lines.append("    v = g(%r)" % path)
    lines.append(
        "    if v is None: v = len(message.encode_path(%r)) + %d"
        % (element.of, element.adjust))
    lines.append("    b%d = p%d(int(v) & %d)" % (index, index, mask))


def _emit_compiled_size(index, path, element, lines, ns):
    # A pinned value encodes in place; a computed one is filled in by
    # _emit_size_total once every leaf of its span has been encoded.
    ns["p%d" % index] = _size_packer(element)
    lines.append("    v = g(%r)" % path)
    lines.append("    b%d = None if v is None else p%d(int(v) & %d)"
                 % (index, index, (1 << element.bits) - 1))


def _emit_size_total(index, element, span, leaves, lines):
    """The computed value of compiled size ``index``: the byte length of
    its span plus ``adjust``.  Numbers and sizes encode to a fixed
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
        #: Active element path -> ``(first, end)`` leaf span, or None
        #: when some size falls back to ``message.encode_path`` (the
        #: encoder then calls back into the message, so
        #: ``Message.encode_path`` must not slice it).
        self.spans = spans
        #: ``encode(values, message) -> [bytes]``: the generated encode
        #: function for this selection assignment, one entry per leaf
        #: in document order.
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
        #: of that option subtree, i.e. what ``_populate`` would write.
        self.option_state: Dict[Tuple[str, str], tuple] = {}
        self._leaves: Dict[str, Any] = {}
        self._states: Dict[tuple, _SelectionState] = {}
        self._compile(model.root, "", self.default_values, self.default_selections)

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
        else:
            if kind not in _LEAF_EMITTERS:
                # Unknown (or subclassed) element type: its populate or
                # encode behaviour may differ from what we compile.
                raise UntemplatableModel(
                    "element %r of type %s is not templatable"
                    % (element.name, kind.__name__))
            if kind is Size and (
                element.bits not in _STRUCT_CODES
                or element.endian not in ("big", "little")
            ):
                # Size defers width/endian validation to encode time
                # (it builds a throwaway Number there); refuse invalid
                # specs so the tree walk keeps raising the canonical
                # error.
                raise UntemplatableModel(
                    "size element %r has unsupported spec" % element.name)
            values[prefix] = element.default_value()
            self._leaves[prefix] = element

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
        sizes = {index for index, leaf in enumerate(leaves)
                 if type(leaf) is Size}
        compiled: Dict[int, bool] = {}

        def compiles(index):
            # A size compiles when its span is active and holds only
            # compiling sizes. Marking it False while its span is
            # checked makes a size inside its own span, or mutually
            # enclosing spans, fall back. Every fallback (those, an
            # inactive option, an invalid path) keeps the encode_path
            # call and so its exact value or exception.
            known = compiled.get(index)
            if known is None:
                compiled[index] = False
                span = spans.get(leaves[index].of)
                known = compiled[index] = span is not None and all(
                    compiles(inner) for inner in range(*span) if inner in sizes)
            return known

        lines = [
            "def _encode(values, message):",
            "    g = values.get",
        ]
        namespace: Dict[str, Any] = {"_M": _MISSING}
        totals = []
        for index, (path, element) in enumerate(zip(field_paths, leaves)):
            if index in sizes and compiles(index):
                _emit_compiled_size(index, path, element, lines, namespace)
                _emit_size_total(index, element, spans[element.of], leaves,
                                 totals)
            else:
                _LEAF_EMITTERS[type(element)](
                    index, path, element, lines, namespace)
        lines.extend(totals)
        lines.append("    return [%s]" % ", ".join(
            "b%d" % index for index in range(len(field_paths))))
        exec("\n".join(lines), namespace)  # noqa: S102 - sources are
        # generated from the model tree alone, nothing user-controlled.
        return _SelectionState(
            tuple(field_paths),
            tuple(field_paths) + tuple(path for path, _ in key),
            spans if all(compiles(index) for index in sizes) else None,
            namespace["_encode"],
        )


_TEMPLATES: "WeakKeyDictionary[DataModel, object]" = WeakKeyDictionary()
_UNTEMPLATABLE = object()


def template_for(model: DataModel) -> Optional[ModelTemplate]:
    """The compiled template for ``model``, or ``None`` when the model
    cannot be compiled faithfully."""
    template = _TEMPLATES.get(model)
    if template is None:
        try:
            template = ModelTemplate(model)
        except UntemplatableModel:
            template = _UNTEMPLATABLE
        _TEMPLATES[model] = template
    return None if template is _UNTEMPLATABLE else template
