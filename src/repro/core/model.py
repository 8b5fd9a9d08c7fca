"""The generalized configuration model and its relation-aware enhancement.

A :class:`ConfigurationModel` is the ordered collection of 4-tuple
entities produced by identification (§III-A2). A
:class:`RelationAwareModel` augments it with the weighted relation graph
produced by pairwise startup-coverage quantification (§III-B1, Figure 3).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.core.entity import ConfigEntity
from repro.errors import ConfigModelError


class ConfigurationModel:
    """An ordered, name-indexed collection of configuration entities."""

    def __init__(self, entities: Iterable[ConfigEntity] = ()):
        self._entities: Dict[str, ConfigEntity] = {}
        for entity in entities:
            self.add(entity)

    def add(self, entity: ConfigEntity) -> None:
        """Add an entity; duplicate names are rejected."""
        if entity.name in self._entities:
            raise ConfigModelError("duplicate configuration entity %r" % entity.name)
        self._entities[entity.name] = entity

    def get(self, name: str) -> ConfigEntity:
        """Look up an entity by name."""
        try:
            return self._entities[name]
        except KeyError:
            raise ConfigModelError("unknown configuration entity %r" % name)

    def names(self) -> List[str]:
        """Entity names in insertion order."""
        return list(self._entities)

    def entities(self) -> List[ConfigEntity]:
        """All entities in insertion order."""
        return list(self._entities.values())

    def mutable_entities(self) -> List[ConfigEntity]:
        """Only the MUTABLE entities (the ones scheduling considers)."""
        return [entity for entity in self._entities.values() if entity.mutable]

    def __contains__(self, name: str) -> bool:
        return name in self._entities

    def __len__(self) -> int:
        return len(self._entities)

    def __iter__(self) -> Iterator[ConfigEntity]:
        return iter(self._entities.values())

    def __repr__(self) -> str:
        return "ConfigurationModel(%d entities)" % len(self._entities)


class RelationAwareModel:
    """A configuration model plus the weighted relation graph.

    Nodes are entity names; edges carry normalised weights in [0, 1]
    reflecting the peak startup-coverage interaction between the pair.
    Entity pairs whose every value combination yields zero coverage have
    no edge. The graph is an undirected adjacency map ``{name:
    {neighbour: weight}}`` seeded with the entity names in insertion
    order; every iteration over it follows dict insertion order, so
    :meth:`edges` (and every float sum over it) is reproducible.
    """

    def __init__(self, model: ConfigurationModel):
        self.model = model
        self._adjacency: Dict[str, Dict[str, float]] = {
            name: {} for name in model.names()}

    def set_weight(self, name_a: str, name_b: str, weight: float) -> None:
        """Attach a relation edge; weights must already be in [0, 1].

        Re-weighting an existing pair keeps its place in :meth:`edges`.
        """
        if name_a not in self.model or name_b not in self.model:
            raise ConfigModelError(
                "relation references unknown entity: %r - %r" % (name_a, name_b)
            )
        if name_a == name_b:
            raise ConfigModelError("self-relations are not part of the model")
        if not 0.0 <= weight <= 1.0:
            raise ConfigModelError("relation weight %r outside [0, 1]" % weight)
        self._adjacency.setdefault(name_a, {})[name_b] = weight
        self._adjacency.setdefault(name_b, {})[name_a] = weight

    def weight(self, name_a: str, name_b: str) -> float:
        """The relation weight between two entities (0.0 when no edge)."""
        return self._adjacency.get(name_a, {}).get(name_b, 0.0)

    def edges(self) -> List[Tuple[str, str, float]]:
        """Every edge once, as ``(a, b, weight)``.

        Nodes are visited in insertion order and each node's neighbours
        in the order their edge was first set; an edge is listed at the
        endpoint visited first, oriented from it.
        """
        edges = []
        seen = set()
        for name, neighbours in self._adjacency.items():
            for other, weight in neighbours.items():
                if other not in seen:
                    edges.append((name, other, weight))
            seen.add(name)
        return edges

    def number_of_edges(self) -> int:
        """How many entity pairs carry a relation edge."""
        return sum(map(len, self._adjacency.values())) // 2

    def edges_by_weight(self) -> List[Tuple[str, str, float]]:
        """All edges sorted by weight, descending (Algorithm 2, line 3).

        Ties break deterministically on the sorted node-name pair so the
        allocation is reproducible.
        """
        edges = [(min(a, b), max(a, b), weight) for a, b, weight in self.edges()]
        edges.sort(key=lambda edge: (-edge[2], edge[0], edge[1]))
        return edges

    def neighbors(self, name: str) -> List[str]:
        """Entities sharing a relation edge with ``name``."""
        try:
            return list(self._adjacency[name])
        except KeyError:
            raise ConfigModelError("unknown configuration entity %r" % name)

    def isolated_entities(self) -> List[str]:
        """Entities with no relation edge at all (conflict-only or inert)."""
        return [name for name, neighbours in self._adjacency.items() if not neighbours]

    def __repr__(self) -> str:
        return "RelationAwareModel(%d entities, %d relations)" % (
            len(self.model),
            self.number_of_edges(),
        )


def normalize_weights(raw: Dict[Tuple[str, str], float]) -> Dict[Tuple[str, str], float]:
    """Scale raw coverage weights to the standard [0, 1] range.

    Zero-coverage pairs are dropped (no edge). With a single distinct
    positive value everything maps to 1.0.
    """
    positive = {pair: value for pair, value in raw.items() if value > 0}
    if not positive:
        return {}
    peak = max(positive.values())
    return {pair: value / peak for pair, value in positive.items()}
