"""Data models: typed element trees rendering protocol messages.

A :class:`DataModel` is a named tree of elements (Peach's DataModel /
Block / String / Number / Blob / Choice / size-of relation). Building a
model yields a :class:`Message` — a concrete instantiation holding one
value per leaf — which mutators modify and :meth:`Message.encode`
renders to bytes, resolving size relations after mutation so length
fields stay consistent unless a mutator deliberately corrupts them.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import FuzzingError


class DataElement:
    """Base class for all data model elements."""

    def __init__(self, name: str):
        if not name or "." in name:
            raise FuzzingError("element name must be non-empty and dot-free: %r" % name)
        self.name = name

    def default_value(self) -> Any:
        raise NotImplementedError

    def encode_value(self, value: Any, context: "Message") -> bytes:
        raise NotImplementedError

    def is_leaf(self) -> bool:
        return True


class Number(DataElement):
    """A fixed-width integer field.

    Args:
        bits: 8, 16, 32 or 64.
        default: Default value.
        endian: ``"big"`` or ``"little"``.
        signed: Two's-complement encoding if true.
    """

    _FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}

    def __init__(self, name: str, bits: int = 8, default: int = 0,
                 endian: str = "big", signed: bool = False):
        super().__init__(name)
        if bits not in self._FORMATS:
            raise FuzzingError("unsupported width %r for %r" % (bits, name))
        if endian not in ("big", "little"):
            raise FuzzingError("endian must be 'big' or 'little'")
        self.bits = bits
        self.default = default
        self.endian = endian
        self.signed = signed

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    def default_value(self) -> int:
        return self.default

    def encode_value(self, value: Any, context: "Message") -> bytes:
        code = self._FORMATS[self.bits]
        if not self.signed:
            code = code.upper()
        prefix = ">" if self.endian == "big" else "<"
        clamped = int(value) & ((1 << self.bits) - 1)
        if self.signed and clamped >= (1 << (self.bits - 1)):
            clamped -= 1 << self.bits
        return struct.pack(prefix + code, clamped)


class Str(DataElement):
    """A variable-length string field (UTF-8 on encode)."""

    def __init__(self, name: str, default: str = "", max_length: int = 4096):
        super().__init__(name)
        self.default = default
        self.max_length = max_length

    def default_value(self) -> str:
        return self.default

    def encode_value(self, value: Any, context: "Message") -> bytes:
        if isinstance(value, bytes):
            return value[: self.max_length]
        return str(value).encode("utf-8", errors="replace")[: self.max_length]


class Blob(DataElement):
    """An opaque byte-sequence field."""

    def __init__(self, name: str, default: bytes = b"", max_length: int = 65536):
        super().__init__(name)
        self.default = bytes(default)
        self.max_length = max_length

    def default_value(self) -> bytes:
        return self.default

    def encode_value(self, value: Any, context: "Message") -> bytes:
        return bytes(value)[: self.max_length]


class Size(DataElement):
    """A size-of relation: encodes the byte length of another element.

    ``of`` is the dot-path of the measured element relative to the model
    root. The value is computed at encode time; mutators may pin an
    explicit override to corrupt the relation.
    """

    def __init__(self, name: str, of: str, bits: int = 16, endian: str = "big",
                 adjust: int = 0):
        super().__init__(name)
        self.of = of
        self.bits = bits
        self.endian = endian
        self.adjust = adjust

    def default_value(self) -> Optional[int]:
        return None  # computed at encode time

    def encode_value(self, value: Any, context: "Message") -> bytes:
        if value is None:
            value = len(context.encode_path(self.of)) + self.adjust
        number = Number(self.name, bits=self.bits, endian=self.endian)
        return number.encode_value(value, context)


class Block(DataElement):
    """An ordered container of child elements."""

    def __init__(self, name: str, children: Sequence[DataElement]):
        super().__init__(name)
        names = [child.name for child in children]
        if len(set(names)) != len(names):
            raise FuzzingError("duplicate child names in block %r" % name)
        self.children = list(children)

    def is_leaf(self) -> bool:
        return False

    def default_value(self) -> None:
        return None

    def encode_value(self, value: Any, context: "Message") -> bytes:
        raise FuzzingError("blocks are encoded structurally, not by value")


class Choice(DataElement):
    """Selects exactly one of several alternative children.

    The message stores the selected child's name; generation defaults to
    the first option, and mutators may switch options.
    """

    def __init__(self, name: str, options: Sequence[DataElement]):
        super().__init__(name)
        if not options:
            raise FuzzingError("choice %r requires at least one option" % name)
        names = [option.name for option in options]
        if len(set(names)) != len(names):
            raise FuzzingError("duplicate option names in choice %r" % name)
        self.options = list(options)

    def is_leaf(self) -> bool:
        return False

    def default_value(self) -> str:
        return self.options[0].name

    def option(self, name: str) -> DataElement:
        for candidate in self.options:
            if candidate.name == name:
                return candidate
        raise FuzzingError("choice %r has no option %r" % (self.name, name))

    def encode_value(self, value: Any, context: "Message") -> bytes:
        raise FuzzingError("choices are encoded structurally, not by value")


class DataModel:
    """A named message format: a root block plus build/encode helpers."""

    def __init__(self, name: str, children: Sequence[DataElement]):
        self.name = name
        self.root = Block(name, children)

    def build(self) -> "Message":
        """Instantiate a concrete default message."""
        return Message(self)

    def leaf_paths(self) -> List[str]:
        """Dot-paths of every leaf under the default choice selections."""
        message = self.build()
        return [path for path, _ in message.fields()]

    def __repr__(self) -> str:
        return "DataModel(%r)" % self.name


#: Lazily bound ``repro.fuzzing.template.template_for`` (the template
#: module imports this one, so the reference cannot be taken at import
#: time without a cycle).
_template_for = None


def _resolve_template(model: "DataModel"):
    global _template_for
    if _template_for is None:
        from repro.fuzzing.template import template_for

        _template_for = template_for
    return _template_for(model)


class Message:
    """A concrete instantiation of a data model.

    Stores per-path values for leaves and selected options for choices.
    Paths are dot-joined element names, rooted below the model name
    (e.g. ``header.flags``).

    When the model compiles, the message carries a
    :class:`~repro.fuzzing.template.ModelTemplate` in ``_tpl`` and the
    tree-walking operations below become dict probes against it; with
    ``_tpl is None`` every method runs its original recursive body.
    Both paths are observationally identical.  ``_tpl`` is derived data
    and never pickled — it is re-resolved on unpickle.
    """

    def __init__(self, model: DataModel):
        self.model = model
        template = _resolve_template(model)
        self._tpl = template
        #: Memoised selection state (template messages only) — resolved
        #: lazily, dropped whenever a selection changes. Derived data,
        #: never pickled (it holds a generated encode function).
        self._state = None
        #: False once any value or selection was written; clean template
        #: messages encode to their state's cached default bytes.
        self._clean = True
        if template is not None:
            self._values: Dict[str, Any] = dict(template.default_values)
            self._selections: Dict[str, str] = dict(template.default_selections)
        else:
            self._values = {}
            self._selections = {}
            self._populate(model.root, "")

    def _populate(self, element: DataElement, prefix: str) -> None:
        if isinstance(element, Block):
            for child in element.children:
                self._populate(child, self._join(prefix, child.name))
        elif isinstance(element, Choice):
            selected = element.default_value()
            self._selections[prefix] = selected
            chosen = element.option(selected)
            self._populate(chosen, self._join(prefix, chosen.name))
        else:
            self._values[prefix] = element.default_value()

    @staticmethod
    def _join(prefix: str, name: str) -> str:
        return name if not prefix else prefix + "." + name

    # -- access ------------------------------------------------------------

    def fields(self) -> List[Tuple[str, Any]]:
        """All active leaf (path, value) pairs in document order."""
        template = self._tpl
        if template is not None:
            get = self._values.get
            return [(path, get(path)) for path in self._active_state().field_paths]
        result: List[Tuple[str, Any]] = []
        self._collect(self.model.root, "", result)
        return result

    def _collect(self, element: DataElement, prefix: str, sink: List[Tuple[str, Any]]) -> None:
        if isinstance(element, Block):
            for child in element.children:
                self._collect(child, self._join(prefix, child.name), sink)
        elif isinstance(element, Choice):
            selected = self._selections.get(prefix, element.default_value())
            chosen = element.option(selected)
            self._collect(chosen, self._join(prefix, chosen.name), sink)
        else:
            sink.append((prefix, self._values.get(prefix)))

    def choice_paths(self) -> List[str]:
        """Paths of all active choice nodes."""
        return sorted(self._selections)

    def _active_state(self):
        """The template selection state for the current selections."""
        state = self._state
        if state is None:
            state = self._state = self._tpl.state_for(self._selections)
        return state

    def element_at(self, path: str) -> DataElement:
        """Resolve the element a path points at (following selections)."""
        template = self._tpl
        if template is not None:
            found = template.elements.get(path)
            if found is not None:
                return found
            # Invalid paths drop through to the walk for its exact errors.
        element: DataElement = self.model.root
        walked = ""
        if not path:
            return element
        for part in path.split("."):
            walked = self._join(walked, part)
            if isinstance(element, Block):
                matches = [c for c in element.children if c.name == part]
                if not matches:
                    raise FuzzingError("no element %r in %r" % (part, element.name))
                element = matches[0]
            elif isinstance(element, Choice):
                element = element.option(part)
            else:
                raise FuzzingError("path %r descends below leaf %r" % (path, element.name))
            # Compensate walked when descending through a choice: the
            # choice node itself is addressed by its prefix, options by
            # prefix + option name, matching _populate.
        return element

    def get(self, path: str) -> Any:
        if path in self._values:
            return self._values[path]
        raise FuzzingError("no value at path %r" % path)

    def set(self, path: str, value: Any) -> None:
        if path not in self._values:
            raise FuzzingError("no value at path %r" % path)
        self._values[path] = value
        self._clean = False

    def select(self, choice_path: str, option_name: str) -> None:
        """Switch a choice to a different option, (re)populating it."""
        element = self.element_at(choice_path) if choice_path else self.model.root
        if not isinstance(element, Choice):
            raise FuzzingError("%r is not a choice" % choice_path)
        option = element.option(option_name)  # validates
        self._selections[choice_path] = option_name
        self._state = None
        self._clean = False
        template = self._tpl
        if template is not None:
            state = template.option_state.get((choice_path, option_name))
            if state is not None:
                option_values, option_selections = state
                self._values.update(option_values)
                self._selections.update(option_selections)
                return
        self._populate(option, self._join(choice_path, option.name))

    def selection(self, choice_path: str) -> str:
        try:
            return self._selections[choice_path]
        except KeyError:
            raise FuzzingError("no selection at %r" % choice_path)

    def copy(self) -> "Message":
        template = self._tpl
        if template is not None:
            # Skip __init__: the clone overwrites both dicts anyway.
            clone = Message.__new__(Message)
            clone.model = self.model
            clone._tpl = template
        else:
            clone = Message(self.model)
        clone._state = self._state
        clone._clean = self._clean
        clone._values = dict(self._values)
        clone._selections = dict(self._selections)
        return clone

    # -- encoding ------------------------------------------------------------

    def encode(self) -> bytes:
        if self._tpl is not None:
            state = self._active_state()
            try:
                if self._clean:
                    # Never written to: the encoding is the state's
                    # default bytes, identical for every pristine message
                    # (size relations included — they see default values
                    # too).
                    cached = state.default_bytes
                    if cached is None:
                        cached = state.default_bytes = b"".join(
                            self._parts(state))
                    return cached
                return b"".join(state.encode(self._values, self))
            except Exception:
                # A value that cannot encode. The encoder fills computed
                # sizes in last while the walk encodes a size's span
                # first, so the walk below raises the walk's own error.
                pass
        return self._encode_element(self.model.root, "")

    def _parts(self, state) -> List[bytes]:
        """Per-leaf encodings of a template message in ``state``."""
        if self._clean:
            parts = state.default_parts
            if parts is None:
                parts = state.default_parts = state.encode(self._values, self)
            return parts
        return state.encode(self._values, self)

    def encode_path(self, path: str) -> bytes:
        """Encode the element at ``path`` (used by size relations)."""
        if self._tpl is not None:
            spans = self._active_state().spans
            span = spans.get(path) if spans is not None else None
            if span is not None:
                try:
                    parts = self._parts(self._state)
                except Exception:
                    # A leaf outside ``path`` may hold a value that
                    # cannot encode; the walk encodes ``path`` alone.
                    pass
                else:
                    return b"".join(parts[span[0]:span[1]])
        return self._encode_element(self.element_at(path), path)

    def _encode_element(self, element: DataElement, prefix: str) -> bytes:
        if isinstance(element, Block):
            parts = [
                self._encode_element(child, self._join(prefix, child.name))
                for child in element.children
            ]
            return b"".join(parts)
        if isinstance(element, Choice):
            selected = self._selections.get(prefix, element.default_value())
            chosen = element.option(selected)
            return self._encode_element(chosen, self._join(prefix, chosen.name))
        value = self._values.get(prefix, element.default_value())
        return element.encode_value(value, self)

    # -- pickling ------------------------------------------------------------
    # Templates are derived, module-cached data; shipping them inside
    # checkpoint payloads would bloat every corpus seed (and pin
    # struct.Struct closures into pickles). Drop and re-resolve.

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_tpl", None)
        state.pop("_state", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._tpl = _resolve_template(self.model)
        self._state = None

    def __repr__(self) -> str:
        return "Message(%r, %d fields)" % (self.model.name, len(self._values))
