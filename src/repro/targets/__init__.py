"""Protocol targets: the pluggable systems-under-test plus the fault model.

Each target lives in its own directory: a subpackage with a
``target.json`` manifest (protocol, description, config-surface summary,
injected-bug table) alongside its server, config and pit modules.
Importing the subpackage registers the target with its pit's state-model
factory; the catalogue itself — including the configuration-gated bugs
from Table II of the paper for the seed subjects — lives in
:mod:`repro.targets.registry` and discovers directories lazily, so
adding a target needs zero edits outside its own directory. Out-of-tree
targets plug in via the ``CMFUZZ_TARGET_MODULES`` environment variable
or the ``repro.targets`` entry-point group.
"""

from repro.targets.base import ProtocolTarget, TargetFactory, startup_probe_for
from repro.targets.faults import BugLedger, CrashReport, FaultKind, SanitizerFault
from repro.targets.registry import (
    DISCOVERY_ENV,
    ENTRY_POINT_GROUP,
    InjectedBug,
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

__all__ = [
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

