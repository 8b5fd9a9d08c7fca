"""Tests for the configuration model and relation-aware model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import AllocationResult, _tally_weights
from repro.core.entity import ConfigEntity, Flag, ValueType
from repro.core.model import ConfigurationModel, RelationAwareModel, normalize_weights
from repro.errors import ConfigModelError


def _entity(name, mutable=True):
    flag = Flag.MUTABLE if mutable else Flag.IMMUTABLE
    values = (True, False) if mutable else ()
    return ConfigEntity(name, ValueType.BOOLEAN, flag, values)


class TestConfigurationModel:
    def test_add_and_get(self):
        model = ConfigurationModel([_entity("a")])
        assert model.get("a").name == "a"

    def test_duplicate_rejected(self):
        model = ConfigurationModel([_entity("a")])
        with pytest.raises(ConfigModelError):
            model.add(_entity("a"))

    def test_unknown_get_raises(self):
        with pytest.raises(ConfigModelError):
            ConfigurationModel().get("missing")

    def test_mutable_entities_filtered(self):
        model = ConfigurationModel([_entity("a"), _entity("b", mutable=False)])
        assert [e.name for e in model.mutable_entities()] == ["a"]

    def test_len_contains_iter(self):
        model = ConfigurationModel([_entity("a"), _entity("b")])
        assert len(model) == 2
        assert "a" in model and "c" not in model
        assert [e.name for e in model] == ["a", "b"]

    def test_names_order(self):
        model = ConfigurationModel([_entity("z"), _entity("a")])
        assert model.names() == ["z", "a"]


class TestRelationAwareModel:
    def _model(self):
        return ConfigurationModel([_entity(n) for n in "abcd"])

    def test_set_and_get_weight(self):
        ram = RelationAwareModel(self._model())
        ram.set_weight("a", "b", 0.5)
        assert ram.weight("a", "b") == 0.5
        assert ram.weight("b", "a") == 0.5

    def test_missing_edge_is_zero(self):
        ram = RelationAwareModel(self._model())
        assert ram.weight("a", "b") == 0.0

    def test_weight_range_enforced(self):
        ram = RelationAwareModel(self._model())
        with pytest.raises(ConfigModelError):
            ram.set_weight("a", "b", 1.5)
        with pytest.raises(ConfigModelError):
            ram.set_weight("a", "b", -0.1)

    def test_unknown_entity_rejected(self):
        ram = RelationAwareModel(self._model())
        with pytest.raises(ConfigModelError):
            ram.set_weight("a", "nope", 0.5)

    def test_self_relation_rejected(self):
        ram = RelationAwareModel(self._model())
        with pytest.raises(ConfigModelError):
            ram.set_weight("a", "a", 0.5)

    def test_edges_sorted_descending(self):
        ram = RelationAwareModel(self._model())
        ram.set_weight("a", "b", 0.2)
        ram.set_weight("c", "d", 0.9)
        ram.set_weight("a", "c", 0.5)
        weights = [w for _, _, w in ram.edges_by_weight()]
        assert weights == sorted(weights, reverse=True)

    def test_edge_tie_break_deterministic(self):
        ram = RelationAwareModel(self._model())
        ram.set_weight("c", "d", 0.5)
        ram.set_weight("a", "b", 0.5)
        edges = ram.edges_by_weight()
        assert edges[0][:2] == ("a", "b")

    def test_isolated_entities(self):
        ram = RelationAwareModel(self._model())
        ram.set_weight("a", "b", 0.3)
        assert set(ram.isolated_entities()) == {"c", "d"}

    def test_neighbors(self):
        ram = RelationAwareModel(self._model())
        ram.set_weight("a", "b", 0.3)
        ram.set_weight("a", "c", 0.3)
        assert set(ram.neighbors("a")) == {"b", "c"}

    def test_neighbors_of_unknown_entity_rejected(self):
        with pytest.raises(ConfigModelError):
            RelationAwareModel(self._model()).neighbors("nope")

    def test_edges_and_count(self):
        ram = RelationAwareModel(self._model())
        assert ram.edges() == [] and ram.number_of_edges() == 0
        ram.set_weight("c", "a", 0.25)
        ram.set_weight("b", "a", 0.5)
        ram.set_weight("a", "c", 0.75)
        assert ram.edges() == [("a", "c", 0.75), ("a", "b", 0.5)]
        assert ram.number_of_edges() == 2
        assert repr(ram) == "RelationAwareModel(4 entities, 2 relations)"


@st.composite
def _weight_sequences(draw):
    """Entity names in a drawn order, then ``set_weight`` calls over them.

    Pairs repeat (re-weights) and come in both orientations.
    """
    names = draw(st.permutations(["n%d" % i for i in range(draw(
        st.integers(min_value=2, max_value=8)))]))
    pair = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
        lambda ab: ab[0] != ab[1])
    weight = st.floats(min_value=0.0, max_value=1.0)
    calls = draw(st.lists(st.tuples(pair, weight), max_size=30))
    groups = draw(st.dictionaries(st.sampled_from(names),
                                  st.integers(min_value=0, max_value=2)))
    return names, [(a, b, w) for (a, b), w in calls], groups


def _apply(names, calls):
    ram = RelationAwareModel(ConfigurationModel([_entity(n) for n in names]))
    for a, b, weight in calls:
        ram.set_weight(a, b, weight)
    return ram


def _tally(ram, groups):
    result = AllocationResult(groups=[], assignment=dict(groups))
    _tally_weights(ram, result)
    return result.intra_weight, result.inter_weight


class _Reference:
    """The relation graph as a dict of neighbour sets plus pair weights."""

    def __init__(self, names, calls):
        self.names = list(names)
        self.adjacent = {name: set() for name in names}
        self.first_set = {name: [] for name in names}
        self.weights = {}
        for a, b, weight in calls:
            for x, y in ((a, b), (b, a)):
                if y not in self.adjacent[x]:
                    self.adjacent[x].add(y)
                    self.first_set[x].append(y)
            self.weights[frozenset((a, b))] = weight

    def edges(self):
        """Nodes in insertion order, then neighbours in the order their
        edge was first set; each edge once, at the endpoint seen first."""
        listed = set()
        edges = []
        for name in self.names:
            for other in self.first_set[name]:
                pair = frozenset((name, other))
                if pair not in listed:
                    listed.add(pair)
                    edges.append((name, other, self.weights[pair]))
        return edges

    def tally(self, groups):
        intra = inter = 0.0
        for a, b, weight in self.edges():
            if a in groups and b in groups:
                if groups[a] == groups[b]:
                    intra += weight
                else:
                    inter += weight
        return intra, inter


class TestRelationGraphProperties:
    @settings(max_examples=150, deadline=None)
    @given(_weight_sequences())
    def test_matches_dict_of_sets_reference(self, drawn):
        names, calls, groups = drawn
        ram = _apply(names, calls)
        ref = _Reference(names, calls)
        assert ram.edges() == ref.edges()
        assert ram.number_of_edges() == len(ref.weights)
        for name in names:
            assert ram.neighbors(name) == ref.first_set[name]
            for other in names:
                assert ram.weight(name, other) == \
                    ref.weights.get(frozenset((name, other)), 0.0)
        assert ram.isolated_entities() == [
            name for name in names if not ref.adjacent[name]]
        assert ram.edges_by_weight() == sorted(
            ((min(a, b), max(a, b), w) for a, b, w in ref.edges()),
            key=lambda edge: (-edge[2], edge[0], edge[1]))
        assert _tally(ram, groups) == ref.tally(groups)

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")

        @settings(max_examples=150, deadline=None)
        @given(_weight_sequences())
        def check(drawn):
            names, calls, groups = drawn
            ram = _apply(names, calls)
            graph = nx.Graph()
            graph.add_nodes_from(names)
            for a, b, weight in calls:
                graph.add_edge(a, b, weight=weight)
            assert ram.edges() == [
                (a, b, data["weight"]) for a, b, data in graph.edges(data=True)]
            assert ram.number_of_edges() == graph.number_of_edges()
            intra = inter = 0.0
            for a, b, data in graph.edges(data=True):
                if a in groups and b in groups:
                    if groups[a] == groups[b]:
                        intra += data["weight"]
                    else:
                        inter += data["weight"]
            assert _tally(ram, groups) == (intra, inter)

        check()


class TestNormalizeWeights:
    def test_scales_to_unit_interval(self):
        raw = {("a", "b"): 4.0, ("c", "d"): 2.0}
        normalized = normalize_weights(raw)
        assert normalized[("a", "b")] == 1.0
        assert normalized[("c", "d")] == 0.5

    def test_zero_weights_dropped(self):
        raw = {("a", "b"): 0.0, ("c", "d"): 3.0}
        normalized = normalize_weights(raw)
        assert ("a", "b") not in normalized

    def test_all_zero_yields_empty(self):
        assert normalize_weights({("a", "b"): 0.0}) == {}

    def test_empty_input(self):
        assert normalize_weights({}) == {}

    def test_single_value_maps_to_one(self):
        assert normalize_weights({("a", "b"): 7.0}) == {("a", "b"): 1.0}
