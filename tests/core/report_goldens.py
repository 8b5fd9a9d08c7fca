"""Quantification-report goldens shared by their test and their recorder.

``tests/goldens/reports.json`` holds, per registered target, a digest of
the :class:`~repro.core.relation.QuantificationReport` that relation
quantification produces with the CMFuzz mode's settings: the probe log
rows, the raw weights, the best values and the sanitizer faults fired
during the build. See ``tests/core/test_report_goldens.py`` for what
they pin and ``scripts/record_report_goldens.py`` for how they are
re-recorded.
"""

import hashlib
import json
import os
from typing import Optional

from repro.api import ModelBuildConfig, quantify_relations
from repro.core.probes import serialize_fault
from repro.targets import target_names

REPORT_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "goldens", "reports.json")

#: The CMFuzz mode's default cap on value combinations per pair.
MAX_COMBINATIONS = 16


def report_summary(report, faults) -> dict:
    """The digest of a report and its faults, plus readable counts."""
    payload = {
        "probes": [
            [[[name, repr(value)]
              for name, value in sorted(record.assignment.items())],
             record.branches, record.failed, sorted(record.sites)]
            for record in report.probes
        ],
        "raw_weights": [[a, b, weight] for (a, b), weight
                        in sorted(report.raw_weights.items())],
        "best_values": [[name, repr(value)] for name, value
                        in sorted(report.best_values.items())],
        "faults": [list(serialize_fault(fault)) for fault in faults],
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
    return {"digest": digest, "launches": report.launches,
            "failures": report.failures, "faults": len(faults)}


def quantify_summary(target: str, workers: int = 1,
                     cache_dir: Optional[str] = None) -> dict:
    """Quantify ``target`` and summarise the report (see above)."""
    faults = []
    config = ModelBuildConfig(max_combinations=MAX_COMBINATIONS,
                              workers=workers, cache=cache_dir is not None,
                              cache_dir=cache_dir)
    _, report = quantify_relations(target, config=config,
                                   on_fault=faults.append)
    return report_summary(report, faults)


def all_targets():
    return list(target_names())


def load_report_goldens() -> dict:
    with open(REPORT_GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)
