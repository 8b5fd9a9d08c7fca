"""Committed quantification-report goldens: the reference of model build.

``tests/goldens/reports.json`` holds one report digest per registered
target (see ``tests/core/report_goldens.py``). Relation quantification
has one pipeline, plan -> execute -> replay, and its report must not
depend on how the probes were executed:

- in-process (``workers=1``);
- across a two-worker probe pool;
- entirely from a warm on-disk probe cache.

A change that is meant to move these digests re-records them with
``PYTHONPATH=src python scripts/record_report_goldens.py`` and says why
in the commit that carries the new file.
"""

import pytest

from tests.core.report_goldens import (
    all_targets,
    load_report_goldens,
    quantify_summary,
)

GOLDENS = load_report_goldens()
TARGETS = sorted(GOLDENS)


def test_goldens_cover_every_registered_target():
    assert TARGETS == sorted(all_targets())


@pytest.mark.parametrize("target", TARGETS)
def test_in_process_report_matches(target):
    assert quantify_summary(target) == GOLDENS[target]


@pytest.mark.parametrize("target", TARGETS)
def test_workers2_report_matches(target):
    assert quantify_summary(target, workers=2) == GOLDENS[target]


@pytest.mark.parametrize("target", TARGETS)
def test_warm_cache_report_matches(target, tmp_path):
    cache_dir = str(tmp_path)
    assert quantify_summary(target, cache_dir=cache_dir) == GOLDENS[target]
    assert quantify_summary(target, cache_dir=cache_dir) == GOLDENS[target]
