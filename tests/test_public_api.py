"""The public API surface: everything advertised imports and works."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys


#: The frozen facade surface. A mismatch here means a breaking API
#: change: either revert it, or bump it consciously alongside the
#: deprecation policy (old spellings keep working for one release).
FACADE_SIGNATURES = {
    "extract_model":
        "(target: 'TargetLike') -> 'ConfigurationModel'",
    "quantify_relations":
        "(target: 'TargetLike', model: 'Optional[ConfigurationModel]' = None,"
        " config: 'Optional[ModelBuildConfig]' = None, on_fault=None,"
        " telemetry=None)"
        " -> 'Tuple[RelationAwareModel, QuantificationReport]'",
    "allocate_groups":
        "(relation_model: 'RelationAwareModel', n_instances: 'int' = 4)"
        " -> 'AllocationResult'",
    "run_campaign":
        "(target, mode='cmfuzz', config: 'Optional[CampaignConfig]' = None,"
        " mode_kwargs: 'Optional[Dict[str, Any]]' = None,"
        " cache: 'bool' = False, cache_dir: 'Optional[str]' = None)"
        " -> 'CampaignResult'",
    "compare_modes":
        "(target: 'TargetLike',"
        " modes: 'Sequence[str]' = ('cmfuzz', 'peach', 'spfuzz'),"
        " repetitions: 'int' = 1, config: 'Optional[CampaignConfig]' = None,"
        " workers: 'int' = 1, cache: 'bool' = False,"
        " cache_dir: 'Optional[str]' = None,"
        " mode_factories: 'Optional[Dict[str, Any]]' = None,"
        " backend: 'Optional[str]' = None,"
        " coordinator: 'Optional[str]' = None)",
}

MODEL_BUILD_CONFIG_FIELDS = [
    ("max_combinations", 36),
    ("aggregate", "max"),
    ("synergy", True),
    ("workers", 1),
    ("cache", False),
    ("cache_dir", None),
    ("probe_timeout", None),
    ("retries", 1),
]

#: The redesigned ``repro.targets`` plugin surface, frozen. Additions
#: are conscious API growth; removals are breaking changes.
TARGETS_MODULE_ALL = [
    "BugLedger",
    "CrashReport",
    "DISCOVERY_ENV",
    "ENTRY_POINT_GROUP",
    "FaultKind",
    "InjectedBug",
    "ManifestError",
    "ProtocolTarget",
    "SanitizerFault",
    "TargetEntry",
    "TargetFactory",
    "TargetManifest",
    "create_target",
    "get_target",
    "load_manifest",
    "register_target",
    "render_target_table",
    "startup_probe_for",
    "target_entries",
    "target_names",
    "unregister_target",
    "validate_manifest",
]

TOP_LEVEL_ALL = [
    "AllocationResult",
    "CacheUnavailableError",
    "CampaignConfig",
    "CampaignResult",
    "ConfigEntity",
    "ConfigItem",
    "ConfigMutator",
    "ConfigSources",
    "ConfigurationModel",
    "CoverageCollector",
    "CoverageMap",
    "Flag",
    "ModelBuildConfig",
    "RelationAwareModel",
    "RelationQuantifier",
    "ReproError",
    "SaturationDetector",
    "StartupError",
    "ValueType",
    "__version__",
    "allocate",
    "allocate_groups",
    "compare_modes",
    "extract_configuration_items",
    "extract_entities",
    "extract_model",
    "quantify_relations",
    "run_campaign",
    "run_repeated",
    "startup_probe_for",
]


class TestFrozenSurface:
    """Snapshot of the stable facade: names, signatures, config fields."""

    def test_facade_exports_exactly_the_five_entry_points(self):
        import repro.api as api

        assert sorted(n for n in api.__all__ if n != "ModelBuildConfig") == \
            sorted(FACADE_SIGNATURES)

    def test_facade_signatures_are_frozen(self):
        import repro.api as api

        for name, expected in FACADE_SIGNATURES.items():
            actual = str(inspect.signature(getattr(api, name)))
            assert actual == expected, (
                "%s signature changed:\n  was   %s\n  is now %s"
                % (name, expected, actual))

    def test_model_build_config_fields_are_frozen(self):
        from repro.api import ModelBuildConfig

        fields = [(f.name, f.default)
                  for f in dataclasses.fields(ModelBuildConfig)]
        assert fields == MODEL_BUILD_CONFIG_FIELDS

    def test_top_level_all_is_frozen(self):
        import repro

        assert sorted(repro.__all__) == TOP_LEVEL_ALL

    def test_facade_reexported_at_top_level(self):
        import repro
        import repro.api as api

        for name in api.__all__:
            assert getattr(repro, name) is getattr(api, name), name


class TestTopLevelExports:
    def test_all_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__

    def test_core_package_exports(self):
        import repro.core

        for name in repro.core.__all__:
            assert hasattr(repro.core, name), name

    def test_harness_package_exports(self):
        import repro.harness

        for name in repro.harness.__all__:
            assert hasattr(repro.harness, name), name

    def test_parallel_package_exports(self):
        import repro.parallel

        for name in repro.parallel.__all__:
            assert hasattr(repro.parallel, name), name

    def test_fuzzing_package_exports(self):
        import repro.fuzzing

        for name in repro.fuzzing.__all__:
            assert hasattr(repro.fuzzing, name), name

    def test_modes_registry_complete(self):
        from repro.parallel import mode_names

        # Every built-in registers.
        assert set(mode_names()) == {"cmfuzz", "peach", "spfuzz",
                                     "hybrid", "plateau", "statemap"}

    def test_every_target_directory_ships_its_own_pit(self):
        import functools

        import repro.targets
        from repro.targets import get_target, load_manifest

        root = os.path.dirname(os.path.abspath(repro.targets.__file__))
        directories = [name for name in sorted(os.listdir(root))
                       if os.path.isfile(os.path.join(root, name, "target.json"))]
        assert directories
        strays = {}
        for directory in directories:
            manifest = load_manifest(os.path.join(root, directory))
            factory = get_target(manifest.name).state_model
            if isinstance(factory, functools.partial):
                factory = factory.func
            if not (factory.__module__ + ".").startswith(
                    "repro.targets.%s." % directory):
                strays[directory] = factory.__module__
        assert strays == {}

    def test_targets_module_surface_is_frozen(self):
        import repro.targets

        assert sorted(repro.targets.__all__) == TARGETS_MODULE_ALL
        for name in repro.targets.__all__:
            assert hasattr(repro.targets, name), name


class TestReadmeWorkflow:
    """The README quickstart snippet, executed."""

    def test_quickstart_snippet(self):
        from repro.core.allocation import allocate
        from repro.core.extraction import extract_entities
        from repro.core.model import ConfigurationModel
        from repro.core.relation import RelationQuantifier
        from repro.targets.base import startup_probe_for
        from repro.targets.mqtt.server import MosquittoTarget

        entities = extract_entities(MosquittoTarget.config_sources(),
                                    MosquittoTarget.entity_overrides())
        model = ConfigurationModel(entities)
        quantifier = RelationQuantifier(startup_probe_for(MosquittoTarget),
                                        max_combinations=4)
        relation_model, _ = quantifier.quantify(model)
        groups = allocate(relation_model, n_instances=4)
        assert len(groups.groups) <= 4
        assert groups.assignment


#: The modules a campaign run imports; none may pull in a third-party
#: package.
_FOOTPRINT_MODULES = ("repro", "repro.api", "repro.harness.campaign",
                      "repro.harness.executor")

#: Runs in a fresh interpreter: the top-level names of every module the
#: imports added to ``sys.modules``. Startup ``.pth`` hooks and aliases
#: of ``__main__`` (multiprocessing's ``__mp_main__``) are not imports.
_FOOTPRINT_SCRIPT = """
import importlib, json, sys
before = set(sys.modules)
for name in %r:
    importlib.import_module(name)
added = {m.split('.')[0] for m in set(sys.modules) - before
         if sys.modules[m] is not sys.modules['__main__']}
print(json.dumps(sorted(added)))
""" % (_FOOTPRINT_MODULES,)


class TestImportFootprint:
    def test_imports_only_stdlib_and_repro(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT],
                                   capture_output=True, text=True, timeout=120,
                                   env=env)
        assert completed.returncode == 0, completed.stderr
        imported = json.loads(completed.stdout)
        assert "repro" in imported
        if hasattr(sys, "stdlib_module_names"):
            foreign = [name for name in imported
                       if name != "repro" and name not in sys.stdlib_module_names]
            assert foreign == []
        else:
            assert "networkx" not in imported and "numpy" not in imported
