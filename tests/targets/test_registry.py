"""The target plugin registry: one catalogue, every consumer derives.

The contract under test: adding a target requires zero edits outside
its own directory — the CLI's ``--target`` choices, ``repro.api``
name resolution, the executor and the rendered target table all read
the registry; manifests are schema-validated at
registration; and every registered target hands out *picklable*
classes and state-model factories (campaign specs cross process
boundaries by name and checkpoints pickle engine state whole).
"""

import argparse
import io
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

from repro.targets import (
    ManifestError,
    TargetEntry,
    TargetManifest,
    create_target,
    get_target,
    load_manifest,
    register_target,
    render_target_table,
    target_entries,
    target_names,
    unregister_target,
    validate_manifest,
)
from repro.targets import registry as registry_module

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Targets this repo ships; out-of-tree registrations may add more, so
#: tests assert superset/derivation rather than exact equality where
#: the contract allows it.
SEED_TARGETS = ("cyclonedds", "dnsmasq", "libcoap", "mosquitto",
                "openssl", "qpid")
BUILTIN_TARGETS = SEED_TARGETS + ("modbus", "randtarget", "restapi")


def _valid_manifest(**overrides):
    raw = {
        "name": "throwaway",
        "protocol": "ECHO",
        "description": "A throwaway target for the registration contract.",
        "port": 9999,
        "config_surface": {"format": "key-value file", "keys": 3},
        "bugs": [{"id": 1, "kind": "SEGV", "site": "echo_copy",
                  "trigger": "oversized echo"}],
    }
    raw.update(overrides)
    return {key: value for key, value in raw.items() if value is not None}


class TestCatalogue:
    def test_builtins_registered(self):
        assert set(BUILTIN_TARGETS) <= set(target_names())

    def test_names_sorted_and_stable(self):
        assert list(target_names()) == sorted(target_names())
        assert target_names() == target_names()

    def test_names_and_entries_agree(self):
        assert tuple(entry.name for entry in target_entries()) == \
            target_names()
        for name in target_names():
            assert get_target(name).name == name

    def test_entries_carry_validated_manifests(self):
        for entry in target_entries():
            assert isinstance(entry, TargetEntry)
            assert isinstance(entry.manifest, TargetManifest)
            assert entry.name == entry.manifest.name
            assert entry.protocol == entry.manifest.protocol
            assert entry.port == entry.manifest.port
            assert entry.description, entry.name

    def test_manifests_agree_with_classes(self):
        for entry in target_entries():
            assert entry.target_cls.PROTOCOL == entry.protocol
            assert entry.target_cls.PORT == entry.port

    def test_create_target_builds_the_registered_class(self):
        target = create_target("dnsmasq")
        assert type(target) is get_target("dnsmasq").target_cls

    def test_unknown_target_is_a_keyerror_naming_the_catalogue(self):
        with pytest.raises(KeyError, match="unknown target"):
            get_target("nope")

    def test_render_table_lists_every_target(self):
        table = render_target_table()
        for entry in target_entries():
            assert "`%s`" % entry.name in table
            assert entry.protocol in table

    def test_every_builtin_carries_a_manifest_file(self):
        for name in BUILTIN_TARGETS:
            # Directory names may differ from registry names (mosquitto
            # lives in mqtt/); resolve via the class's module.
            module = sys.modules[get_target(name).target_cls.__module__]
            manifest = load_manifest(module.__file__)
            assert manifest.name == name


class TestManifestValidation:
    def test_valid_manifest_freezes(self):
        manifest = validate_manifest(_valid_manifest())
        assert manifest.name == "throwaway"
        assert manifest.bugs[0].site == "echo_copy"

    def test_description_is_whitespace_normalised(self):
        manifest = validate_manifest(_valid_manifest(
            description="  spread \n over\tlines "))
        assert manifest.description == "spread over lines"

    @pytest.mark.parametrize("corruption,match", [
        ({"name": None}, "missing manifest keys: name"),
        ({"port": None}, "missing manifest keys: port"),
        ({"extra": 1}, "unknown manifest keys: extra"),
        # The pit is declared once, as register_target's state_model.
        ({"pit": "some.module:state_model"}, "unknown manifest keys: pit"),
        ({"name": ""}, "non-empty string"),
        ({"name": "no spaces"}, "identifier-like"),
        ({"port": "1883"}, "must be an int"),
        ({"port": 0}, "must be an int"),
        ({"port": 65536}, "must be an int"),
        ({"port": True}, "must be an int"),
        ({"config_surface": "18 keys"}, "must be an object"),
        ({"config_surface": {"keys": 3}}, "config_surface.format"),
        ({"config_surface": {"format": "ini"}}, "config_surface.keys"),
        ({"config_surface": {"format": "ini", "keys": 0}},
         "config_surface.keys"),
        ({"config_surface": {"format": "ini", "keys": True}},
         "config_surface.keys"),
        ({"bugs": [{"id": 1}]}, r"bugs\[0\]"),
        ({"bugs": [{"id": "x", "kind": "SEGV", "site": "s",
                    "trigger": "t"}]}, r"bugs\[0\].id"),
        ({"bugs": [{"id": 1, "kind": "", "site": "s", "trigger": "t"}]},
         r"bugs\[0\].kind"),
    ])
    def test_schema_violations_raise_manifest_errors(self, corruption, match):
        with pytest.raises(ManifestError, match=match):
            validate_manifest(_valid_manifest(**corruption))

    def test_non_dict_manifest_rejected(self):
        with pytest.raises(ManifestError, match="JSON object"):
            validate_manifest(["not", "a", "dict"])

    def test_origin_prefixes_every_message(self):
        with pytest.raises(ManifestError, match="^here.json: "):
            validate_manifest({}, origin="here.json")

    def test_load_manifest_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="cannot read manifest"):
            load_manifest(str(tmp_path))

    def test_load_manifest_invalid_json(self, tmp_path):
        (tmp_path / "target.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(ManifestError, match="invalid JSON"):
            load_manifest(str(tmp_path))


class TestRegistration:
    def test_zero_edit_registration_end_to_end(self):
        """A target registered from 'its own module' — here a generated
        family member — shows up in every derived surface without
        touching any of them."""
        from repro.cli import _build_parser
        from repro.targets.randtarget import register_family_member

        name = register_family_member(411)
        try:
            assert name in target_names()
            assert "`%s`" % name in render_target_table()
            # The CLI parser is rebuilt per invocation, so a fresh build
            # must offer the new target.
            assert name in _campaign_target_choices(_build_parser())
        finally:
            unregister_target(name)
        assert name not in target_names()

    def test_reregistering_same_pair_is_idempotent(self):
        entry = get_target("dnsmasq")
        again = register_target("dnsmasq", entry.target_cls,
                                entry.state_model, entry.manifest)
        assert again is entry

    def test_conflicting_registration_raises(self):
        entry = get_target("dnsmasq")

        class Impostor(entry.target_cls):  # same PROTOCOL/PORT, new class
            pass

        with pytest.raises(ValueError, match="already registered"):
            register_target("dnsmasq", Impostor, entry.state_model,
                            entry.manifest)

    def test_replace_allows_override_and_restore(self):
        original = get_target("qpid")
        shadow_cls = get_target("dnsmasq").target_cls
        manifest = _valid_manifest(name="qpid", protocol="DNS", port=53)
        register_target("qpid", shadow_cls,
                        get_target("dnsmasq").state_model, manifest,
                        replace=True)
        try:
            assert get_target("qpid").target_cls is shadow_cls
        finally:
            register_target("qpid", original.target_cls,
                            original.state_model, original.manifest,
                            replace=True)
        assert get_target("qpid").target_cls is original.target_cls

    def test_invalid_names_and_callables_rejected(self):
        manifest = _valid_manifest()
        with pytest.raises(ValueError):
            register_target("", object, lambda: None, manifest)
        with pytest.raises(ValueError):
            register_target("no spaces", object, lambda: None, manifest)
        with pytest.raises(TypeError):
            register_target("throwaway", "notcallable", lambda: None,
                            manifest)
        with pytest.raises(TypeError):
            register_target("throwaway", object, "notcallable", manifest)
        with pytest.raises(TypeError, match="TargetManifest or dict"):
            register_target("throwaway", object, lambda: None, "manifest")

    def test_manifest_name_must_match_registration_name(self):
        with pytest.raises(ManifestError, match="registered as"):
            register_target("other", object, lambda: None,
                            _valid_manifest(name="throwaway"))

    def test_stale_manifest_protocol_or_port_fails_loudly(self):
        cls = get_target("dnsmasq").target_cls
        factory = get_target("dnsmasq").state_model
        with pytest.raises(ManifestError, match="protocol"):
            register_target("throwaway", cls, factory,
                            _valid_manifest(port=53))
        with pytest.raises(ManifestError, match="port"):
            register_target("throwaway", cls, factory,
                            _valid_manifest(protocol="DNS", port=54))

    def test_unregister_missing_is_a_noop(self):
        unregister_target("never-registered")


class TestDiscovery:
    def test_env_modules_imported_and_registered(self, monkeypatch):
        """CMFUZZ_TARGET_MODULES names modules whose import registers
        targets — the out-of-tree plugin path."""
        with tempfile.TemporaryDirectory() as tmpdir:
            with open(os.path.join(tmpdir, "_cmfuzz_plugin_target.py"),
                      "w", encoding="utf-8") as handle:
                handle.write(textwrap.dedent("""
                    from repro.fuzzing.datamodel import Blob, DataModel
                    from repro.fuzzing.statemodel import Action, State, StateModel
                    from repro.targets.base import ProtocolTarget
                    from repro.targets.registry import register_target


                    class PluginEchoTarget(ProtocolTarget):
                        NAME = "plugin_echo"
                        PROTOCOL = "ECHO"
                        PORT = 9999

                        @classmethod
                        def default_config(cls):
                            return {"port": 9999}

                        def _startup_impl(self):
                            self.cov.hit("startup.complete")

                        def reset_session(self):
                            pass

                        def handle_packet(self, data):
                            self.require_started()
                            self.cov.hit("echo")
                            return data


                    def state_model():
                        return StateModel(
                            "plugin-echo", "start",
                            [State("start", [Action("send", "Echo")])
                             .add_transition("finish", 1.0),
                             State("finish")],
                            [DataModel("Echo", [Blob("payload", default=b"hi")])])


                    register_target("plugin_echo", PluginEchoTarget, state_model, {
                        "name": "plugin_echo",
                        "protocol": "ECHO",
                        "description": "An out-of-tree target loaded by discovery.",
                        "port": 9999,
                        "config_surface": {"format": "key-value file", "keys": 1},
                    })
                """))
            monkeypatch.syspath_prepend(tmpdir)
            monkeypatch.setenv(registry_module.DISCOVERY_ENV,
                               "_cmfuzz_plugin_target")
            monkeypatch.setattr(registry_module.REGISTRY, "_discovered",
                                False)
            try:
                assert "plugin_echo" in target_names()
                target = create_target("plugin_echo")
                target.startup({})
                assert target.handle_packet(b"ping") == b"ping"
            finally:
                unregister_target("plugin_echo")
                sys.modules.pop("_cmfuzz_plugin_target", None)

    def test_concurrent_lookups_wait_for_a_slow_discovery(self, monkeypatch,
                                                           tmp_path):
        """A lookup racing another thread's discovery must not miss the
        targets that discovery is still importing."""
        (tmp_path / "_cmfuzz_slow_target.py").write_text(textwrap.dedent("""
            import time

            from repro.targets.registry import register_target


            class SlowTarget:
                PROTOCOL = "SLOW"
                PORT = 9998


            def state_model():
                return None


            time.sleep(0.5)
            register_target("slow_discovered", SlowTarget, state_model, {
                "name": "slow_discovered",
                "protocol": "SLOW",
                "description": "A target whose module imports slowly.",
                "port": 9998,
                "config_surface": {"format": "key-value file", "keys": 1},
            })
        """), encoding="utf-8")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv(registry_module.DISCOVERY_ENV,
                           "_cmfuzz_slow_target")
        monkeypatch.setattr(registry_module.REGISTRY, "_discovered", False)
        outcomes = []

        def lookup():
            try:
                outcomes.append(get_target("slow_discovered").name)
            except KeyError as error:
                outcomes.append(error)

        first = threading.Thread(target=lookup)
        first.start()
        racers = [threading.Thread(target=lookup) for _ in range(4)]
        try:
            # Race more lookups against the first thread once it is
            # inside the slow import.
            deadline = time.monotonic() + 5.0
            while "_cmfuzz_slow_target" not in sys.modules:
                assert time.monotonic() < deadline, "discovery never started"
                time.sleep(0.001)
            for racer in racers:
                racer.start()
        finally:
            for thread in [first] + racers:
                if thread.is_alive():
                    thread.join(timeout=10.0)
            unregister_target("slow_discovered")
            sys.modules.pop("_cmfuzz_slow_target", None)
        assert outcomes == ["slow_discovered"] * 5

    def test_directory_scan_covers_every_builtin(self):
        subdirs = registry_module._package_directory_targets()
        for entry in target_entries():
            if entry.name in BUILTIN_TARGETS:
                package = sys.modules[entry.target_cls.__module__]
                directory = os.path.basename(os.path.dirname(
                    os.path.abspath(package.__file__)))
                assert directory in subdirs


def _campaign_target_choices(parser):
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    campaign = subparsers.choices["campaign"]
    target_action = next(a for a in campaign._actions
                         if "--target" in a.option_strings)
    return tuple(target_action.choices)


class TestConsumersAgree:
    def test_cli_target_choices_are_the_registry(self):
        from repro.cli import _build_parser

        assert _campaign_target_choices(_build_parser()) == target_names()

    def test_cli_targets_command_prints_the_table(self):
        from repro.cli import main

        out = io.StringIO()
        assert main(["targets"], out=out) == 0
        assert out.getvalue().strip() == render_target_table().strip()

    def test_readme_target_table_is_generated_from_registry(self):
        with open(os.path.join(_REPO_ROOT, "README.md"),
                  encoding="utf-8") as handle:
            readme = handle.read()
        for line in render_target_table().splitlines():
            assert line in readme, (
                "README target table is stale; regenerate with "
                "`python -m repro targets`:\n%s" % line)


class TestPicklableRegistrations:
    """Campaign specs cross process boundaries by name and checkpoints
    pickle engine state whole — every registered class and state-model
    factory must round-trip."""

    @settings(max_examples=9, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(BUILTIN_TARGETS))
    def test_classes_and_factories_survive_pickle(self, name):
        entry = get_target(name)
        assert pickle.loads(pickle.dumps(entry.target_cls)) is entry.target_cls
        factory = pickle.loads(pickle.dumps(entry.state_model))
        model = factory()
        assert len(model.data_models()) > 0

    def test_generated_family_members_pickle_by_reference(self):
        from repro.targets.randtarget import make_random_target

        cls = make_random_target(902)
        assert pickle.loads(pickle.dumps(cls)) is cls

    def test_started_instances_pickle(self):
        for name in BUILTIN_TARGETS:
            target = create_target(name)
            target.startup({})
            clone = pickle.loads(pickle.dumps(target))
            assert type(clone) is type(target), name
