"""Committed golden exports: the behavioural reference of the engine.

``tests/goldens/exports.json`` holds one campaign export for every
registered mode x every registered target, all run with the same small
config (seed 7, two instances, one simulated hour, a coverage sample
every 300 sim-s), plus the export of a CMFuzz dnsmasq campaign that was
killed mid-run and resumed from its checkpoint. The engine loop, the
mutators, the coverage collector and the transport have one
implementation each; these files are what they are held to:

- a serial campaign must reproduce its golden byte for byte;
- the same cell through the executor pool (``workers=2``) must match
  with the per-instance detail stripped (pooled outcomes rebuild
  without live instance objects, so their ``instances`` list is empty);
- a checkpointed campaign killed at any iteration and resumed must
  export the resume golden.

A change that is meant to move these bytes re-records them with
``PYTHONPATH=src python scripts/record_goldens.py`` and says why in the
commit that carries the new file.
"""

import tempfile

import pytest

from tests.harness.goldens import (
    ABORT_POINTS,
    RESUME_CELL,
    all_cells,
    load_goldens,
    pooled_exports,
    resume_export,
    serial_export,
    strip_instances,
)

GOLDENS = load_goldens()
CELLS = [(mode, target) for mode in sorted(GOLDENS["serial"])
         for target in sorted(GOLDENS["serial"][mode])]
_IDS = ["%s-%s" % cell for cell in CELLS]


def test_goldens_cover_every_registered_cell():
    assert CELLS == all_cells()
    assert len(CELLS) == 54


@pytest.mark.parametrize("mode,target", CELLS, ids=_IDS)
def test_serial_export_is_byte_identical(mode, target):
    assert serial_export(mode, target) == GOLDENS["serial"][mode][target]


@pytest.fixture(scope="module")
def pooled():
    return pooled_exports(CELLS)


@pytest.mark.parametrize("mode,target", CELLS, ids=_IDS)
def test_workers2_export_matches_with_instances_stripped(pooled, mode,
                                                         target):
    assert (strip_instances(pooled[mode, target])
            == strip_instances(GOLDENS["serial"][mode][target]))


@pytest.mark.parametrize("abort_at", ABORT_POINTS)
def test_kill_and_resume_export_matches(abort_at):
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        assert (resume_export(checkpoint_dir, abort_at)
                == GOLDENS["resume"]["%s/%s" % RESUME_CELL])
