"""Property-based tests (hypothesis) on the core invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import allocate, suitability_score
from repro.core.entity import ConfigEntity, ConfigItem, Flag, ValueType
from repro.core.model import ConfigurationModel, RelationAwareModel, normalize_weights
from repro.core.type_inference import build_entity, derive_values, infer_type

_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)


@st.composite
def _relation_models(draw):
    count = draw(st.integers(min_value=2, max_value=10))
    names = ["e%d" % i for i in range(count)]
    model = ConfigurationModel(
        [ConfigEntity(n, ValueType.BOOLEAN, Flag.MUTABLE, (True, False)) for n in names]
    )
    ram = RelationAwareModel(model)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    for a, b in pairs:
        weight = draw(st.floats(min_value=0.0, max_value=1.0))
        if weight > 0:
            ram.set_weight(a, b, weight)
    return ram


class TestNormalizationProperties:
    @given(st.dictionaries(
        st.tuples(_names, _names),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        max_size=20,
    ))
    def test_normalized_weights_in_unit_interval(self, raw):
        for weight in normalize_weights(raw).values():
            assert 0.0 <= weight <= 1.0

    @given(st.dictionaries(
        st.tuples(_names, _names),
        st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
        min_size=1, max_size=20,
    ))
    def test_peak_weight_normalises_to_one(self, raw):
        normalized = normalize_weights(raw)
        assert max(normalized.values()) == 1.0


class TestAllocationProperties:
    @settings(max_examples=40, deadline=None)
    @given(_relation_models(), st.integers(min_value=1, max_value=5))
    def test_every_entity_allocated_exactly_once(self, ram, n_instances):
        result = allocate(ram, n_instances)
        seen = [name for group in result.groups for name in group]
        assert sorted(seen) == sorted(set(seen))
        assert set(seen) == set(ram.model.names())

    @settings(max_examples=40, deadline=None)
    @given(_relation_models(), st.integers(min_value=1, max_value=5))
    def test_group_count_never_exceeds_instances(self, ram, n_instances):
        result = allocate(ram, n_instances)
        assert len(result.groups) <= max(n_instances, 1)

    @settings(max_examples=40, deadline=None)
    @given(_relation_models(), st.integers(min_value=1, max_value=5))
    def test_assignment_consistent_with_groups(self, ram, n_instances):
        result = allocate(ram, n_instances)
        for name, index in result.assignment.items():
            assert name in result.groups[index]

    @settings(max_examples=40, deadline=None)
    @given(_relation_models())
    def test_cohesion_bounded(self, ram):
        result = allocate(ram, 3)
        assert 0.0 <= result.cohesion <= 1.0

    @given(st.lists(_names, min_size=1, max_size=6, unique=True),
           st.floats(min_value=0.0, max_value=1.0))
    def test_suitability_score_nonnegative(self, group, weight):
        assert suitability_score(group, "probe", lambda a, b: weight) >= 0.0


class TestInferenceProperties:
    @given(st.integers(min_value=-10**6, max_value=10**6))
    def test_numeric_literals_always_number(self, value):
        # 0 and 1 read as boolean switches, which outrank Number.
        item = ConfigItem("n", str(value))
        expected = ValueType.BOOLEAN if value in (0, 1) else ValueType.NUMBER
        assert infer_type(item) is expected

    @given(st.integers(min_value=-10**4, max_value=10**4))
    def test_derived_numeric_values_include_default(self, value):
        item = ConfigItem("n", str(value))
        values = derive_values(item, ValueType.NUMBER)
        assert values[0] == value

    @given(_names, st.sampled_from(["true", "false", "on", "off"]))
    def test_boolean_entities_always_get_both_values(self, name, literal):
        entity = build_entity(ConfigItem(name, literal))
        if entity.type is ValueType.BOOLEAN:
            assert set(entity.values) == {True, False}

    @given(_names)
    def test_built_entity_mutable_implies_values(self, name):
        entity = build_entity(ConfigItem(name, "true"))
        if entity.flag is Flag.MUTABLE:
            assert entity.values
