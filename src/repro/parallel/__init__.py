"""Parallel fuzzing modes: the registry plus the built-in schedulers.

Each mode builds N isolated :class:`~repro.parallel.instance.FuzzingInstance`
objects (own network namespace, own target process, own engine) and hooks
into the campaign loop. Modes self-register with
:mod:`repro.parallel.registry` from their own module; importing this
package loads the built-ins:

- :mod:`repro.parallel.peach` — the original Peach parallel mode: every
  instance fuzzes the default configuration with a different seed.
- :mod:`repro.parallel.spfuzz` — state-aware path-based parallelism:
  state-model paths are partitioned across instances, interesting seeds
  are synchronised periodically.
- :mod:`repro.parallel.cmfuzz` — the paper's contribution: configuration
  model identification, pairwise relation quantification, cohesive group
  allocation, and adaptive configuration mutation at coverage saturation.
- :mod:`repro.parallel.hybrid` — CMFuzz composed with SPFuzz's state-path
  scheduling.
- :mod:`repro.parallel.plateau` — FuzzPilot-style plateau controller:
  mutator-weight rotation, then configuration-mutation escalation, when
  the coverage slope flattens.
- :mod:`repro.parallel.statemap` — reverse-state selection: per-state
  visit counts steer instances toward rarely-reached protocol states.

Consumers read the catalogue through :func:`get_mode`,
:func:`create_mode` and :func:`mode_names`; out-of-tree modes join it
through ``register_mode`` / discovery without any edit here.
"""

from repro.parallel.base import ParallelMode
from repro.parallel.cmfuzz import CmFuzzMode
from repro.parallel.hybrid import HybridMode
from repro.parallel.instance import FuzzingInstance
from repro.parallel.peach import PeachParallelMode
from repro.parallel.plateau import PlateauMode
from repro.parallel.registry import (
    ModeEntry,
    create_mode,
    get_mode,
    mode_entries,
    mode_names,
    register_mode,
    render_mode_table,
    unregister_mode,
)
from repro.parallel.spfuzz import SpFuzzMode
from repro.parallel.statemap import StateMapMode

__all__ = [
    "CmFuzzMode",
    "FuzzingInstance",
    "HybridMode",
    "ModeEntry",
    "ParallelMode",
    "PeachParallelMode",
    "PlateauMode",
    "SpFuzzMode",
    "StateMapMode",
    "create_mode",
    "get_mode",
    "mode_entries",
    "mode_names",
    "register_mode",
    "render_mode_table",
    "unregister_mode",
]
