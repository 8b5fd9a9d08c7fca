"""Mutation strategies: how many fields of a message to corrupt and how."""

from __future__ import annotations

import random
from typing import Sequence

from repro.fuzzing.datamodel import Message
from repro.fuzzing.mutators import DEFAULT_MUTATORS, Mutator, mutators_for


class MutationStrategy:
    """Base strategy: transform a freshly built message before sending."""

    def apply(self, message: Message, rng: random.Random) -> Message:
        raise NotImplementedError


class RandomFieldStrategy(MutationStrategy):
    """Peach-style random strategy.

    With probability ``valid_ratio`` the message is sent untouched
    (protocol-compliant traffic keeps sessions progressing); otherwise
    between 1 and ``max_fields`` randomly chosen fields (including choice
    selections) are mutated with applicable mutators.

    The per-call work — the target-path list (``fields()`` then
    ``choice_paths()``), element lookups, applicable mutator sets — is
    served from the message's model template and a per-strategy memo.
    The ``randint``/``choice`` draws are inlined through ``getrandbits``,
    bit-exact with a stock :class:`random.Random`.
    """

    def __init__(self, max_fields: int = 3, valid_ratio: float = 0.2,
                 pool: Sequence[Mutator] = DEFAULT_MUTATORS):
        if not 0 <= valid_ratio <= 1:
            raise ValueError("valid_ratio must be within [0, 1]")
        if max_fields < 1:
            raise ValueError("max_fields must be >= 1")
        self.max_fields = max_fields
        self.valid_ratio = valid_ratio
        self.pool = tuple(pool)
        #: element -> (bound mutate methods, len, len.bit_length());
        #: elements are immutable per campaign, so the set never changes.
        #: Dropped from pickles — unpickled element keys would be copies
        #: that never match the campaign's elements.
        self._applicable = {}

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_applicable"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._applicable = {}

    def apply(self, message: Message, rng: random.Random) -> Message:
        """A mutated copy of ``message`` (or ``message`` itself, with
        probability ``valid_ratio``).

        ``rng`` is drawn through ``random()`` and ``getrandbits`` only: a
        :class:`random.Random` subclass that overrides ``randint`` or
        ``choice`` does not see those overrides here, and an ``rng``
        without ``getrandbits`` raises ``AttributeError``. (The mutators
        it calls draw through :mod:`repro.fastrand`, which does fall back
        to the stdlib methods for such generators.)
        """
        if rng.random() < self.valid_ratio:
            return message
        mutated = message.copy()
        template = mutated._tpl
        state = mutated._state
        if state is None:
            state = mutated._state = template.state_for(mutated._selections)
        targets = state.target_paths
        if not targets:
            return mutated
        elements = template.elements
        memo = self._applicable
        getrandbits = rng.getrandbits
        # ``randint(1, max_fields)`` and the two per-pick ``choice``
        # calls with the rejection loops inlined — bit-exact with the
        # stdlib draws, including the degenerate single-candidate case
        # (which still consumes one bit).
        width = self.max_fields
        k = width.bit_length()
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        count = 1 + r
        n_targets = len(targets)
        kt = n_targets.bit_length()
        for _ in range(count):
            r = getrandbits(kt)
            while r >= n_targets:
                r = getrandbits(kt)
            path = targets[r]
            element = elements[path]
            entry = memo.get(element)
            if entry is None:
                applicable = mutators_for(element, self.pool)
                entry = (
                    [mutator.mutate for mutator in applicable],
                    len(applicable),
                    len(applicable).bit_length(),
                )
                memo[element] = entry
            mutates, n, ka = entry
            if not n:
                continue
            r = getrandbits(ka)
            while r >= n:
                r = getrandbits(ka)
            mutates[r](mutated, path, rng)
        return mutated


class FieldExhaustiveStrategy(MutationStrategy):
    """Deterministically cycles through (field, mutator) pairs.

    Useful for tests and for the sequential portion of Peach's default
    strategy: each call mutates the next pair in a stable order.
    """

    def __init__(self, pool: Sequence[Mutator] = DEFAULT_MUTATORS):
        self.pool = tuple(pool)
        self._cursor = 0

    def apply(self, message: Message, rng: random.Random) -> Message:
        mutated = message.copy()
        targets = [path for path, _ in mutated.fields()] + mutated.choice_paths()
        pairs = []
        for path in targets:
            element = mutated.element_at(path)
            for mutator in mutators_for(element, self.pool):
                pairs.append((path, mutator))
        if not pairs:
            return mutated
        path, mutator = pairs[self._cursor % len(pairs)]
        self._cursor += 1
        mutator.mutate(mutated, path, rng)
        return mutated
