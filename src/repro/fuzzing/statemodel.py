"""State models: interaction sequences and transitions (§II-B).

A :class:`StateModel` is a directed graph of :class:`State` nodes. Each
state carries ordered :class:`Action` items (send a data model, expect a
reply) and weighted transitions to successor states. The engine walks the
model per iteration; SPFuzz partitions its simple paths across instances.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FuzzingError
from repro.fuzzing.datamodel import DataModel


@dataclass(frozen=True)
class Action:
    """One step inside a state.

    Attributes:
        kind: ``"send"`` (emit a data model) or ``"recv"`` (drain one
            response from the target).
        data_model: The data model name for send actions.
    """

    kind: str
    data_model: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("send", "recv"):
            raise FuzzingError("unknown action kind %r" % self.kind)
        if self.kind == "send" and not self.data_model:
            raise FuzzingError("send actions require a data model name")


@dataclass
class State:
    """A protocol state with its actions and outgoing transitions."""

    name: str
    actions: List[Action] = field(default_factory=list)
    transitions: List[Tuple[str, float]] = field(default_factory=list)

    def add_transition(self, target: str, weight: float = 1.0) -> "State":
        if not (math.isfinite(weight) and weight > 0):
            raise FuzzingError("transition weight must be positive and "
                               "finite, got %r" % (weight,))
        self.transitions.append((target, weight))
        return self


class StateModel:
    """The state graph plus the data model registry it references."""

    def __init__(self, name: str, initial: str,
                 states: Sequence[State], data_models: Sequence[DataModel]):
        self.name = name
        self._states: Dict[str, State] = {}
        for state in states:
            if state.name in self._states:
                raise FuzzingError("duplicate state %r" % state.name)
            self._states[state.name] = state
        if initial not in self._states:
            raise FuzzingError("initial state %r undefined" % initial)
        self.initial = initial
        self._data_models: Dict[str, DataModel] = {}
        for model in data_models:
            if model.name in self._data_models:
                raise FuzzingError("duplicate data model %r" % model.name)
            self._data_models[model.name] = model
        #: state name -> (targets, cum_weights, total, hi) for the
        #: transition draw in :meth:`walk` (built lazily, derived from
        #: the transitions, never pickled: checkpoints write the model
        #: once, so it must pickle the same before and after a walk).
        self._walk_cache: Dict[str, tuple] = {}
        self._validate()

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_walk_cache"] = {}
        return state

    def _validate(self) -> None:
        for state in self._states.values():
            for target, _ in state.transitions:
                if target not in self._states:
                    raise FuzzingError(
                        "state %r transitions to unknown state %r" % (state.name, target)
                    )
            for action in state.actions:
                if action.kind == "send" and action.data_model not in self._data_models:
                    raise FuzzingError(
                        "state %r sends unknown data model %r"
                        % (state.name, action.data_model)
                    )

    def state(self, name: str) -> State:
        try:
            return self._states[name]
        except KeyError:
            raise FuzzingError("unknown state %r" % name)

    def data_model(self, name: str) -> DataModel:
        try:
            return self._data_models[name]
        except KeyError:
            raise FuzzingError("unknown data model %r" % name)

    def states(self) -> List[str]:
        return list(self._states)

    def data_models(self) -> List[DataModel]:
        return list(self._data_models.values())

    def walk(self, rng: random.Random, max_states: int = 8) -> List[str]:
        """Sample a state path from the initial state.

        Transitions are chosen proportionally to their weights; the walk
        ends at a state without transitions or after ``max_states``.
        """
        path = [self.initial]
        current = self._states[self.initial]
        if type(rng) is random.Random:
            # ``Random.choices(pop, weights=w, k=1)`` re-accumulates the
            # weights and re-derives its bisect bounds every call; its
            # draw is ``pop[bisect(cum, random() * total, 0, hi)]`` on
            # every supported interpreter.  Caching (cum, total, hi)
            # per state consumes the identical random() value and picks
            # the identical successor, one attribute call per hop.
            cache = self._walk_cache
            states = self._states
            rand = rng.random
            while current.transitions and len(path) < max_states:
                entry = cache.get(current.name)
                if entry is None:
                    targets = [t for t, _ in current.transitions]
                    cum = list(accumulate(w for _, w in current.transitions))
                    entry = (targets, cum, cum[-1] + 0.0, len(targets) - 1)
                    cache[current.name] = entry
                targets, cum, total, hi = entry
                choice = targets[bisect(cum, rand() * total, 0, hi)]
                path.append(choice)
                current = states[choice]
            return path
        while current.transitions and len(path) < max_states:
            targets = [t for t, _ in current.transitions]
            weights = [w for _, w in current.transitions]
            choice = rng.choices(targets, weights=weights, k=1)[0]
            path.append(choice)
            current = self._states[choice]
        return path

    def simple_paths(self, max_length: int = 8) -> List[Tuple[str, ...]]:
        """Enumerate loop-free paths from the initial state.

        The SPFuzz baseline partitions these paths across its parallel
        instances. Paths end at sink states or at ``max_length``.
        """
        paths: List[Tuple[str, ...]] = []

        def explore(current: str, trail: Tuple[str, ...]) -> None:
            state = self._states[current]
            successors = [t for t, _ in state.transitions if t not in trail]
            if not successors or len(trail) >= max_length:
                paths.append(trail)
                return
            for target in successors:
                explore(target, trail + (target,))

        explore(self.initial, (self.initial,))
        # Deterministic order: longest (deepest) paths first, then lexical.
        paths.sort(key=lambda p: (-len(p), p))
        return paths

    def __repr__(self) -> str:
        return "StateModel(%r, %d states, %d data models)" % (
            self.name,
            len(self._states),
            len(self._data_models),
        )
