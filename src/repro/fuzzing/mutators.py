"""Field mutators: the transformations the engine applies to messages.

Mutation-based corruption of generated messages (bit flips, boundary
numbers, truncation, oversized strings, relation corruption) mirrors the
mutator families of Peach. Each mutator declares which element types it
applies to; :func:`mutators_for` selects the applicable set for a field.

Mutators draw through :mod:`repro.fastrand`, whose helpers consume the
generator's state exactly like the stdlib methods they replace (and
defer to those methods for generators other than a stock
:class:`random.Random`), and serve per-element constants (boundary
candidate lists, min/max bounds) from weak memo tables.
"""

from __future__ import annotations

import random
from typing import List
from weakref import WeakKeyDictionary

from repro import fastrand
from repro.fuzzing.datamodel import (
    Blob,
    Choice,
    DataElement,
    Message,
    Number,
    Size,
    Str,
)

_INTERESTING_STRINGS = (
    "",
    "A" * 64,
    "A" * 1024,
    "%s%s%s%n",
    "../../../../etc/passwd",
    "\x00",
    "\xff\xfe",
    "0" * 128,
    "true",
    "-1",
)


class Mutator:
    """Base mutator: transforms one field value of a message in place."""

    name = "mutator"

    def applies_to(self, element: DataElement) -> bool:
        raise NotImplementedError

    def mutate(self, message: Message, path: str, rng: random.Random) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name


# Per-element constants the numeric mutators would otherwise rebuild on
# every call (min/max are computed properties). Keyed weakly so test
# fixtures don't accumulate; module-level (not on the mutator instances)
# so the shared DEFAULT_MUTATORS stay plainly picklable.
_NUMBER_BOUNDS: "WeakKeyDictionary[Number, tuple]" = WeakKeyDictionary()
_BOUNDARY_CANDIDATES: "WeakKeyDictionary[Number, list]" = WeakKeyDictionary()


def _number_bounds(element: Number) -> tuple:
    bounds = _NUMBER_BOUNDS.get(element)
    if bounds is None:
        bounds = (element.min_value, element.max_value)
        _NUMBER_BOUNDS[element] = bounds
    return bounds


class NumberBoundaryMutator(Mutator):
    """Replace a number with a boundary or near-boundary value."""

    name = "number-boundary"

    def applies_to(self, element: DataElement) -> bool:
        return isinstance(element, Number)

    def mutate(self, message: Message, path: str, rng: random.Random) -> None:
        element = message.element_at(path)
        assert isinstance(element, Number)
        candidates = _BOUNDARY_CANDIDATES.get(element)
        if candidates is None:
            low, high = _number_bounds(element)
            candidates = [0, 1, -1, high, high - 1, low, high // 2, high + 1]
            _BOUNDARY_CANDIDATES[element] = candidates
        message.set(path, fastrand.choice(rng, candidates))


class NumberRandomMutator(Mutator):
    """Replace a number with a uniformly random in-range value."""

    name = "number-random"

    def applies_to(self, element: DataElement) -> bool:
        return isinstance(element, Number)

    def mutate(self, message: Message, path: str, rng: random.Random) -> None:
        element = message.element_at(path)
        assert isinstance(element, Number)
        low, high = _number_bounds(element)
        message.set(path, fastrand.randint(rng, low, high))


class NumberBitFlipMutator(Mutator):
    """Flip a random bit of the current numeric value."""

    name = "number-bitflip"

    def applies_to(self, element: DataElement) -> bool:
        return isinstance(element, Number)

    def mutate(self, message: Message, path: str, rng: random.Random) -> None:
        element = message.element_at(path)
        assert isinstance(element, Number)
        current = int(message.get(path) or 0)
        bit = fastrand.randrange(rng, element.bits)
        message.set(path, current ^ (1 << bit))


class StringMutator(Mutator):
    """Swap a string for an interesting literal or inflate/truncate it."""

    name = "string"

    def applies_to(self, element: DataElement) -> bool:
        return isinstance(element, Str)

    def mutate(self, message: Message, path: str, rng: random.Random) -> None:
        current = str(message.get(path) or "")
        action = fastrand.randrange(rng, 4)
        if action == 0:
            message.set(path, fastrand.choice(rng, _INTERESTING_STRINGS))
        elif action == 1:
            message.set(
                path, current + "A" * fastrand.choice(rng, (16, 256, 2048)))
        elif action == 2:
            message.set(path, current[: max(0, len(current) // 2)])
        else:
            position = fastrand.randrange(rng, max(1, len(current) + 1))
            junk = chr(fastrand.randrange(rng, 1, 256))
            message.set(path, current[:position] + junk + current[position:])


class BlobMutator(Mutator):
    """Bit-flip, truncate, extend or zero a blob."""

    name = "blob"

    def applies_to(self, element: DataElement) -> bool:
        return isinstance(element, Blob)

    def mutate(self, message: Message, path: str, rng: random.Random) -> None:
        current = bytearray(message.get(path) or b"")
        action = fastrand.randrange(rng, 4)
        if action == 0 and current:
            index = fastrand.randrange(rng, len(current))
            current[index] ^= 1 << fastrand.randrange(rng, 8)
        elif action == 1:
            current = current[: len(current) // 2]
        elif action == 2:
            current.extend(
                bytes([fastrand.randrange(rng, 256)])
                * fastrand.choice(rng, (8, 64, 512)))
        else:
            current = bytearray(fastrand.randbelow_many(
                rng, 256, fastrand.choice(rng, (1, 16, 128))))
        message.set(path, bytes(current))


class SizeCorruptionMutator(Mutator):
    """Pin a size relation to a wrong value (under/over/huge)."""

    name = "size-corruption"

    def applies_to(self, element: DataElement) -> bool:
        return isinstance(element, Size)

    def mutate(self, message: Message, path: str, rng: random.Random) -> None:
        element = message.element_at(path)
        assert isinstance(element, Size)
        actual = len(message.encode_path(element.of)) + element.adjust
        candidates = [0, actual + 1, max(0, actual - 1), actual * 2,
                      (1 << element.bits) - 1]
        message.set(path, fastrand.choice(rng, candidates))


class ChoiceSwitchMutator(Mutator):
    """Switch a choice to a different option."""

    name = "choice-switch"

    def applies_to(self, element: DataElement) -> bool:
        return isinstance(element, Choice) and len(element.options) > 1

    def mutate(self, message: Message, path: str, rng: random.Random) -> None:
        element = message.element_at(path)
        assert isinstance(element, Choice)
        current = message.selection(path)
        others = [option.name for option in element.options if option.name != current]
        message.select(path, fastrand.choice(rng, others))


#: The default mutator pool, in a deterministic order.
DEFAULT_MUTATORS = (
    NumberBoundaryMutator(),
    NumberRandomMutator(),
    NumberBitFlipMutator(),
    StringMutator(),
    BlobMutator(),
    SizeCorruptionMutator(),
    ChoiceSwitchMutator(),
)


def mutators_for(element: DataElement, pool=DEFAULT_MUTATORS) -> List[Mutator]:
    """The subset of ``pool`` applicable to ``element``."""
    return [mutator for mutator in pool if mutator.applies_to(element)]
