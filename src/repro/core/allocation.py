"""Algorithm 2: cohesive grouping and parallel allocation (§III-B2).

Edges of the relation-aware model are processed in descending weight
order. While fewer than N groups exist, an edge between two unassigned
entities seeds a new group; afterwards unassigned entities join the
existing group maximising the FINDBEST suitability score

    Score(G, c) = (sum_{c' in G} w(c, c'))^2 / |G|

which amplifies strong connections (squared numerator) while balancing
group sizes (|G| denominator). An edge with exactly one assigned endpoint
pulls the unassigned endpoint into that group, preserving the connection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.core.model import RelationAwareModel
from repro.errors import AllocationError

#: Weight accessor: (entity_name, entity_name) -> weight in [0, 1].
WeightFn = Callable[[str, str], float]


def suitability_score(group: Sequence[str], entity: str, weight_fn: WeightFn) -> float:
    """The FINDBEST score of placing ``entity`` into ``group``."""
    if not group:
        return 0.0
    total = sum(weight_fn(entity, member) for member in group)
    return (total * total) / len(group)


def find_best(entity: str, groups: Sequence[List[str]], weight_fn: WeightFn) -> int:
    """Index of the group maximising the suitability score for ``entity``.

    Ties break toward the smallest group, then the lowest index, keeping
    the allocation deterministic and size-balanced.
    """
    if not groups:
        raise AllocationError("FINDBEST requires at least one existing group")
    best_index = 0
    best_key = None
    for index, group in enumerate(groups):
        key = (-suitability_score(group, entity, weight_fn), len(group), index)
        if best_key is None or key < best_key:
            best_key = key
            best_index = index
    return best_index


@dataclass
class AllocationResult:
    """The output of Algorithm 2.

    Attributes:
        groups: One entity-name list per fuzzing instance.
        assignment: entity name -> group index.
        intra_weight: Total relation weight captured inside groups.
        inter_weight: Total relation weight crossing group boundaries.
    """

    groups: List[List[str]]
    assignment: Dict[str, int] = field(default_factory=dict)
    intra_weight: float = 0.0
    inter_weight: float = 0.0

    @property
    def cohesion(self) -> float:
        """Fraction of total relation weight kept within groups."""
        total = self.intra_weight + self.inter_weight
        return self.intra_weight / total if total else 1.0

    def group_of(self, entity: str) -> int:
        try:
            return self.assignment[entity]
        except KeyError:
            raise AllocationError("entity %r was not allocated" % entity)


def allocate(
    relation_model: RelationAwareModel,
    n_instances: int,
    include_isolated: bool = True,
) -> AllocationResult:
    """Run Algorithm 2 against a relation-aware configuration model.

    Args:
        relation_model: The weighted relation graph over entities.
        n_instances: Number of parallel fuzzing instances (target group
            count).
        include_isolated: Whether entities with no relation edge are
            distributed round-robin across groups after edge processing.
            The paper's algorithm only places entities reachable via
            edges; isolated entities would otherwise never be fuzzed
            under a non-default value, so we fold them in by default.
    """
    if n_instances < 1:
        raise AllocationError("need at least one fuzzing instance, got %d" % n_instances)

    weight_fn = relation_model.weight
    groups: List[List[str]] = []
    assignment: Dict[str, int] = {}

    def is_set(entity: str) -> bool:
        return entity in assignment

    def place(entity: str, group_index: int) -> None:
        groups[group_index].append(entity)
        assignment[entity] = group_index

    for name_a, name_b, _weight in relation_model.edges_by_weight():
        if not is_set(name_a) and not is_set(name_b):
            if len(groups) < n_instances:
                groups.append([])
                place(name_a, len(groups) - 1)
                place(name_b, len(groups) - 1)
            else:
                for entity in (name_a, name_b):
                    place(entity, find_best(entity, groups, weight_fn))
        elif is_set(name_a) != is_set(name_b):
            anchored = name_a if is_set(name_a) else name_b
            loose = name_b if is_set(name_a) else name_a
            place(loose, assignment[anchored])
        # Both endpoints already assigned: the edge is either captured
        # within a group or crosses groups; nothing to do.

    if include_isolated:
        isolated = [
            name for name in relation_model.isolated_entities() if name not in assignment
        ]
        for entity in sorted(isolated):
            if len(groups) < n_instances:
                groups.append([])
                place(entity, len(groups) - 1)
            else:
                smallest = min(range(len(groups)), key=lambda i: (len(groups[i]), i))
                place(entity, smallest)

    if not groups:
        groups = [[] for _ in range(n_instances)]

    result = AllocationResult(groups=groups, assignment=assignment)
    _tally_weights(relation_model, result)
    return result


def allocate_random(
    relation_model: RelationAwareModel, n_instances: int, seed: int = 0
) -> AllocationResult:
    """Ablation baseline: uniform-random entity-to-group assignment."""
    import random

    rng = random.Random(seed)
    names = sorted(relation_model.model.names())
    groups: List[List[str]] = [[] for _ in range(n_instances)]
    assignment: Dict[str, int] = {}
    for name in names:
        index = rng.randrange(n_instances)
        groups[index].append(name)
        assignment[name] = index
    result = AllocationResult(groups=groups, assignment=assignment)
    _tally_weights(relation_model, result)
    return result


def allocate_round_robin(
    relation_model: RelationAwareModel, n_instances: int
) -> AllocationResult:
    """Ablation baseline: relation-blind round-robin assignment."""
    names = sorted(relation_model.model.names())
    groups: List[List[str]] = [[] for _ in range(n_instances)]
    assignment: Dict[str, int] = {}
    for position, name in enumerate(names):
        index = position % n_instances
        groups[index].append(name)
        assignment[name] = index
    result = AllocationResult(groups=groups, assignment=assignment)
    _tally_weights(relation_model, result)
    return result


def _tally_weights(relation_model: RelationAwareModel, result: AllocationResult) -> None:
    intra = 0.0
    inter = 0.0
    for name_a, name_b, weight in relation_model.edges():
        group_a = result.assignment.get(name_a)
        group_b = result.assignment.get(name_b)
        if group_a is None or group_b is None:
            continue
        if group_a == group_b:
            intra += weight
        else:
            inter += weight
    result.intra_weight = intra
    result.inter_weight = inter
