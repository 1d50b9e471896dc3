"""EngineConfig facade: keyword-only signatures, old call shapes rejected."""

import warnings

import pytest

from repro import EngineConfig, OassisEngine
from repro.datasets import running_example
from repro.crowd.cache import CrowdCache
from repro.nlg.templates import DEFAULT_TEMPLATES


@pytest.fixture(scope="module")
def ontology():
    return running_example.build_ontology()


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.max_values_per_var == 3
        assert config.sample_size == 5

    def test_override_keeps_unset_fields(self):
        config = EngineConfig(max_values_per_var=2)
        bumped = config.override(sample_size=7)
        assert bumped.max_values_per_var == 2
        assert bumped.sample_size == 7
        # None means "keep" — the replay/execute call-sites rely on it
        assert config.override(sample_size=None).sample_size == config.sample_size

    def test_engine_reads_config(self, ontology):
        engine = OassisEngine(ontology, config=EngineConfig(max_values_per_var=2))
        assert engine.max_values_per_var == 2
        assert engine.config.max_values_per_var == 2


class TestDeprecationShims:
    """The PR 3 warn-once shims are retired: old call shapes now fail."""

    def test_legacy_init_kwargs_raise(self, ontology):
        with pytest.raises(TypeError):
            OassisEngine(ontology, max_values_per_var=2)
        with pytest.raises(TypeError):
            OassisEngine(ontology, DEFAULT_TEMPLATES)  # positional templates

    def test_unknown_init_kwarg_raises(self, ontology):
        with pytest.raises(TypeError):
            OassisEngine(ontology, bogus=1)

    def test_legacy_positional_tail_raises(self, ontology):
        engine = OassisEngine(ontology)
        query = engine.parse(running_example.FRAGMENT_QUERY)
        members = []
        with pytest.raises(TypeError):
            engine.execute(query, members, 3)  # legacy: sample_size
        with pytest.raises(TypeError):
            engine.execute_single_user(query, None, ())  # legacy: more_pool
        with pytest.raises(TypeError):
            engine.replay(query, [], CrowdCache(), 0.3)  # legacy: threshold
        with pytest.raises(TypeError):
            engine.screen_members(query, members, 8)  # legacy: probes
        with pytest.raises(TypeError):
            engine.queue_manager(query, 2)  # legacy: sample_size

    def test_positional_and_keyword_conflict_raises(self, ontology):
        engine = OassisEngine(ontology)
        query = engine.parse(running_example.FRAGMENT_QUERY)
        with pytest.raises(TypeError):
            engine.queue_manager(query, 2, sample_size=3)

    def test_new_style_call_does_not_warn(self, ontology):
        engine = OassisEngine(ontology, config=EngineConfig(sample_size=3))
        query = engine.parse(running_example.FRAGMENT_QUERY)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            manager = engine.queue_manager(query, sample_size=2)
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert manager.aggregator.sample_size == 2
