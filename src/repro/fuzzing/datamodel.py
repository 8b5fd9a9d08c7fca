"""Data models: typed element trees rendering protocol messages.

A :class:`DataModel` is a named tree of elements (Peach's DataModel /
Block / String / Number / Blob / Choice / size-of relation). Building a
model yields a :class:`Message` — a concrete instantiation holding one
value per leaf — which mutators modify and :meth:`Message.encode`
renders to bytes, resolving size relations after mutation so length
fields stay consistent unless a mutator deliberately corrupts them.

Every model is compiled into a
:class:`~repro.fuzzing.template.ModelTemplate` when it is built, and
messages run on that template alone; a model the compiler cannot
handle is a :class:`~repro.errors.FuzzingError` at construction.
"""

from __future__ import annotations

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

    def is_leaf(self) -> bool:
        return True


def _check_width(name: str, bits: int, endian: str) -> None:
    """The one check of a ``Number``'s or ``Size``'s width and byte order."""
    if bits not in (8, 16, 32, 64):
        raise FuzzingError("unsupported size of %r bits for %r (must be 8, "
                           "16, 32 or 64)" % (bits, name))
    if endian not in ("big", "little"):
        raise FuzzingError("endian must be 'big' or 'little' for %r, not %r"
                           % (name, endian))


class Number(DataElement):
    """A fixed-width integer field.

    Args:
        bits: 8, 16, 32 or 64.
        default: Default value.
        endian: ``"big"`` or ``"little"``.
        signed: Two's-complement encoding if true.
    """

    def __init__(self, name: str, bits: int = 8, default: int = 0,
                 endian: str = "big", signed: bool = False):
        super().__init__(name)
        _check_width(name, bits, endian)
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


class Str(DataElement):
    """A variable-length string field (UTF-8 on encode)."""

    def __init__(self, name: str, default: str = "", max_length: int = 4096):
        super().__init__(name)
        self.default = default
        self.max_length = max_length

    def default_value(self) -> str:
        return self.default


class Blob(DataElement):
    """An opaque byte-sequence field."""

    def __init__(self, name: str, default: bytes = b"", max_length: int = 65536):
        super().__init__(name)
        self.default = bytes(default)
        self.max_length = max_length

    def default_value(self) -> bytes:
        return self.default


class Size(DataElement):
    """A size-of relation: encodes the byte length of another element.

    ``of`` is the dot-path of the measured element relative to the model
    root. The value is computed at encode time; mutators may pin an
    explicit override to corrupt the relation. Building the model checks
    that ``of`` is active whenever the size is and that no size lies in
    its own span, directly or through other sizes' spans.
    """

    def __init__(self, name: str, of: str, bits: int = 16, endian: str = "big",
                 adjust: int = 0):
        super().__init__(name)
        _check_width(name, bits, endian)
        self.of = of
        self.bits = bits
        self.endian = endian
        self.adjust = adjust

    def default_value(self) -> Optional[int]:
        return None  # computed at encode time


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


class DataModel:
    """A named message format: a root block plus build/encode helpers.

    Raises:
        FuzzingError: The model does not compile (see
            :class:`~repro.fuzzing.template.ModelTemplate`).
    """

    def __init__(self, name: str, children: Sequence[DataElement]):
        self.name = name
        self.root = Block(name, children)
        _resolve_template(self)

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

    Every operation is a dict probe against the model's
    :class:`~repro.fuzzing.template.ModelTemplate` (``_tpl``). The
    template is derived data and never pickled — it is re-resolved on
    unpickle.
    """

    def __init__(self, model: DataModel):
        self.model = model
        template = self._tpl = _resolve_template(model)
        #: Memoised selection state — resolved lazily, dropped whenever
        #: a selection changes. Derived data, never pickled (it holds a
        #: generated encode function).
        self._state = None
        #: False once any value or selection was written; clean
        #: messages encode to their state's cached default bytes.
        self._clean = True
        self._values: Dict[str, Any] = dict(template.default_values)
        self._selections: Dict[str, str] = dict(template.default_selections)

    # -- access ------------------------------------------------------------

    def fields(self) -> List[Tuple[str, Any]]:
        """All active leaf (path, value) pairs in document order."""
        get = self._values.get
        return [(path, get(path)) for path in self._active_state().field_paths]

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
        """Resolve the element a path points at (all options included)."""
        try:
            return self._tpl.elements[path]
        except KeyError:
            raise FuzzingError("no element at path %r in %r"
                               % (path, self.model.name)) from None

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
        element = self.element_at(choice_path)
        if not isinstance(element, Choice):
            raise FuzzingError("%r is not a choice" % choice_path)
        element.option(option_name)  # validates
        # Choices nested in the option being left are no longer active.
        prefix = choice_path + "."
        for path in [path for path in self._selections
                     if path.startswith(prefix)]:
            del self._selections[path]
        self._selections[choice_path] = option_name
        self._state = None
        self._clean = False
        option_values, option_selections = self._tpl.option_state[
            (choice_path, option_name)]
        self._values.update(option_values)
        self._selections.update(option_selections)

    def selection(self, choice_path: str) -> str:
        try:
            return self._selections[choice_path]
        except KeyError:
            raise FuzzingError("no selection at %r" % choice_path)

    def copy(self) -> "Message":
        # Skip __init__: the clone overwrites both dicts anyway.
        clone = Message.__new__(Message)
        clone.model = self.model
        clone._tpl = self._tpl
        clone._state = self._state
        clone._clean = self._clean
        clone._values = dict(self._values)
        clone._selections = dict(self._selections)
        return clone

    # -- encoding ------------------------------------------------------------

    def encode(self) -> bytes:
        state = self._active_state()
        if self._clean:
            # Never written to: the encoding is the state's default
            # bytes, identical for every pristine message (size
            # relations included — they see default values too).
            cached = state.default_bytes
            if cached is None:
                cached = state.default_bytes = b"".join(self._parts(state))
            return cached
        return b"".join(state.encode(self._values))

    def _parts(self, state) -> List[bytes]:
        """Per-leaf encodings of this message in ``state``."""
        if self._clean:
            parts = state.default_parts
            if parts is None:
                parts = state.default_parts = state.encode(self._values)
            return parts
        return state.encode(self._values)

    def encode_path(self, path: str) -> bytes:
        """Encode the active element at ``path`` (used by size relations)."""
        span = self._active_state().spans.get(path)
        if span is None:
            raise FuzzingError("no active element at path %r in %r"
                               % (path, self.model.name))
        return b"".join(self._parts(self._state)[span[0]:span[1]])

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
