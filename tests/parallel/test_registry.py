"""The mode registry: one catalogue, every consumer derives from it.

The contract under test: registering a parallel mode requires zero
edits outside the mode's own module — the CLI's ``--mode`` choices,
``compare_modes``, the executor and the benchmark enumeration all read
the registry; and every registered mode hands out *picklable* engine
factories (the checkpoint plane pickles instances whole).
"""

import argparse
import importlib.util
import os
import pickle
import sys
import tempfile
import textwrap
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.campaign import CampaignConfig, _CampaignContext
from repro.parallel import (
    ModeEntry,
    create_mode,
    get_mode,
    mode_entries,
    mode_names,
    register_mode,
    render_mode_table,
    unregister_mode,
)
from repro.parallel import registry as registry_module
from repro.targets import get_target
from repro.targets.dns.server import DnsmasqTarget

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Modes this repo ships; out-of-tree registrations may add more, so
#: tests assert superset/derivation rather than exact equality where
#: the contract allows it.
BUILTIN_MODES = ("cmfuzz", "hybrid", "peach", "plateau", "spfuzz", "statemap")


def _ctx(n_instances=2, seed=1):
    config = CampaignConfig(n_instances=n_instances, seed=seed)
    return _CampaignContext(DnsmasqTarget, get_target("dnsmasq").state_model(),
                            config)


class TestCatalogue:
    def test_builtins_registered(self):
        assert set(BUILTIN_MODES) <= set(mode_names())

    def test_names_sorted_and_stable(self):
        assert list(mode_names()) == sorted(mode_names())
        assert mode_names() == mode_names()

    def test_names_and_entries_agree(self):
        assert tuple(entry.name for entry in mode_entries()) == mode_names()
        for name in mode_names():
            assert callable(get_mode(name).factory)

    def test_entries_carry_descriptions(self):
        for entry in mode_entries():
            assert isinstance(entry, ModeEntry)
            assert entry.name in mode_names()
            assert entry.description, entry.name

    def test_create_mode_builds_the_registered_class(self):
        from repro.parallel.statemap import StateMapMode

        mode = create_mode("statemap", max_path_length=5)
        assert isinstance(mode, StateMapMode)
        assert mode.max_path_length == 5

    def test_unknown_mode_is_a_keyerror_naming_the_catalogue(self):
        with pytest.raises(KeyError, match="unknown mode"):
            create_mode("nope")

    def test_render_table_lists_every_mode(self):
        table = render_mode_table()
        for name in mode_names():
            assert "`%s`" % name in table


class TestRegistration:
    def test_zero_edit_registration_end_to_end(self):
        """A new mode registered from 'its own module' shows up in every
        derived surface without touching any of them."""

        def factory(**kwargs):
            """A throwaway scheduler for the registration contract."""
            return object()

        register_mode("dummy-zero-edit", factory)
        try:
            assert "dummy-zero-edit" in mode_names()
            assert get_mode("dummy-zero-edit").factory is factory
            assert "dummy-zero-edit" in render_mode_table()
            # The CLI parser is rebuilt per invocation, so a fresh build
            # must offer the new mode.
            from repro.cli import _build_parser

            assert "dummy-zero-edit" in _campaign_mode_choices(
                _build_parser())
            # Auto-description from the factory docstring.
            entry = next(e for e in mode_entries()
                         if e.name == "dummy-zero-edit")
            assert "throwaway scheduler" in entry.description
        finally:
            unregister_mode("dummy-zero-edit")
        assert "dummy-zero-edit" not in mode_names()

    def test_reregistering_same_factory_is_idempotent(self):
        entry = next(e for e in mode_entries() if e.name == "cmfuzz")
        again = register_mode("cmfuzz", entry.factory, entry.description)
        assert again.factory is entry.factory

    def test_conflicting_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_mode("cmfuzz", lambda: None)

    def test_replace_allows_override_and_restore(self):
        original = next(e for e in mode_entries() if e.name == "peach")

        def other(**kwargs):
            return object()

        register_mode("peach", other, "shadow", replace=True)
        try:
            assert get_mode("peach").factory is other
        finally:
            register_mode("peach", original.factory, original.description,
                          replace=True)
        assert get_mode("peach").factory is original.factory

    def test_invalid_names_and_factories_rejected(self):
        with pytest.raises(ValueError):
            register_mode("", lambda: None)
        with pytest.raises(ValueError):
            register_mode("no spaces", lambda: None)
        with pytest.raises(TypeError):
            register_mode("notcallable", object())


class TestDiscovery:
    def test_env_modules_imported_and_registered(self, monkeypatch):
        """CMFUZZ_MODE_MODULES names modules whose import registers
        modes — the entry-point-style plugin path."""
        with tempfile.TemporaryDirectory() as tmpdir:
            with open(os.path.join(tmpdir, "_cmfuzz_plugin_mode.py"),
                      "w", encoding="utf-8") as handle:
                handle.write(textwrap.dedent("""
                    from repro.parallel.registry import register_mode

                    def plugin_factory(**kwargs):
                        '''An out-of-tree scheduler loaded by discovery.'''
                        return object()

                    register_mode("plugin-discovered", plugin_factory)
                """))
            monkeypatch.syspath_prepend(tmpdir)
            monkeypatch.setenv(registry_module.DISCOVERY_ENV,
                               "_cmfuzz_plugin_mode")
            monkeypatch.setattr(registry_module.REGISTRY, "_discovered",
                                False)
            try:
                assert "plugin-discovered" in mode_names()
            finally:
                unregister_mode("plugin-discovered")
                sys.modules.pop("_cmfuzz_plugin_mode", None)

    def test_concurrent_lookups_wait_for_a_slow_discovery(self, monkeypatch,
                                                           tmp_path):
        """A lookup racing another thread's discovery must not miss the
        modes that discovery is still importing."""
        (tmp_path / "_cmfuzz_slow_mode.py").write_text(textwrap.dedent("""
            import time

            from repro.parallel.registry import register_mode

            def slow_factory(**kwargs):
                '''An out-of-tree scheduler whose module imports slowly.'''
                return object()

            time.sleep(0.5)
            register_mode("slow-discovered", slow_factory)
        """), encoding="utf-8")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv(registry_module.DISCOVERY_ENV, "_cmfuzz_slow_mode")
        monkeypatch.setattr(registry_module.REGISTRY, "_discovered", False)
        outcomes = []

        def lookup():
            try:
                outcomes.append(registry_module.get_mode("slow-discovered").name)
            except KeyError as error:
                outcomes.append(error)

        first = threading.Thread(target=lookup)
        first.start()
        racers = [threading.Thread(target=lookup) for _ in range(4)]
        try:
            # Race more lookups against the first thread once it is
            # inside the slow import.
            deadline = time.monotonic() + 5.0
            while "_cmfuzz_slow_mode" not in sys.modules:
                assert time.monotonic() < deadline, "discovery never started"
                time.sleep(0.001)
            for racer in racers:
                racer.start()
        finally:
            for thread in [first] + racers:
                if thread.is_alive():
                    thread.join(timeout=10.0)
            unregister_mode("slow-discovered")
            sys.modules.pop("_cmfuzz_slow_mode", None)
        assert outcomes == ["slow-discovered"] * 5


def _campaign_mode_choices(parser):
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    campaign = subparsers.choices["campaign"]
    mode_action = next(a for a in campaign._actions
                       if "--mode" in a.option_strings)
    return tuple(mode_action.choices)


class TestConsumersAgree:
    def test_cli_mode_choices_are_the_registry(self):
        from repro.cli import _build_parser

        assert _campaign_mode_choices(_build_parser()) == mode_names()

    def test_cli_modes_command_prints_the_table(self):
        import io

        from repro.cli import main

        out = io.StringIO()
        assert main(["modes"], out=out) == 0
        assert out.getvalue().strip() == render_mode_table().strip()

    def test_compare_modes_accepts_registry_names(self):
        from repro.api import compare_modes

        config = CampaignConfig(n_instances=2, duration_hours=1.0, seed=3,
                                sample_interval=600.0)
        comparison = compare_modes("dnsmasq", modes=("plateau", "statemap"),
                                   config=config)
        assert set(comparison.results) == {"plateau", "statemap"}

    def test_compare_modes_default_is_registered(self):
        import inspect

        from repro.api import compare_modes

        default = inspect.signature(compare_modes).parameters["modes"].default
        assert set(default) <= set(mode_names())

    def test_benchmark_enumeration_derives_from_registry(self):
        bench_dir = os.path.join(_REPO_ROOT, "benchmarks")
        path = os.path.join(bench_dir, "bench_ablation_adaptive.py")
        spec = importlib.util.spec_from_file_location(
            "_bench_ablation_adaptive_under_test", path)
        module = importlib.util.module_from_spec(spec)
        # The bench imports its sibling conftest; stand in for running
        # from the benchmarks directory without disturbing pytest's own
        # conftest bookkeeping.
        previous_conftest = sys.modules.pop("conftest", None)
        sys.path.insert(0, bench_dir)
        try:
            spec.loader.exec_module(module)
        finally:
            sys.path.remove(bench_dir)
            sys.modules.pop("conftest", None)
            if previous_conftest is not None:
                sys.modules["conftest"] = previous_conftest
        assert tuple(module.BENCH_MODES) == mode_names()

    def test_readme_mode_table_is_generated_from_registry(self):
        with open(os.path.join(_REPO_ROOT, "README.md"),
                  encoding="utf-8") as handle:
            readme = handle.read()
        for line in render_mode_table().splitlines():
            assert line in readme, (
                "README mode table is stale; regenerate with "
                "`python -m repro modes`:\n%s" % line)


class TestPicklableFactories:
    """Checkpoints pickle instances whole — every registered mode's
    engine factories must round-trip."""

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mode_name=st.sampled_from(BUILTIN_MODES),
           seed=st.integers(min_value=0, max_value=50))
    def test_factories_survive_pickle(self, mode_name, seed):
        ctx = _ctx(n_instances=2, seed=seed)
        mode = create_mode(mode_name)
        instances = mode.create_instances(ctx)
        for instance in instances:
            clone = pickle.loads(pickle.dumps(instance._engine_factory))
            assert callable(clone)

    def test_modes_themselves_pickle(self):
        for name in BUILTIN_MODES:
            ctx = _ctx(n_instances=2, seed=9)  # fresh namespaces per mode
            mode = create_mode(name)
            mode.create_instances(ctx)
            clone = pickle.loads(pickle.dumps(mode))
            assert type(clone) is type(mode), name
