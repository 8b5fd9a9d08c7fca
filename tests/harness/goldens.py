"""Golden-export cells shared by the golden tests and their recorder.

See ``tests/harness/test_goldens.py`` for what the goldens pin and
``scripts/record_goldens.py`` for how they are re-recorded.
"""

import dataclasses
import json
import os

from repro.api import run_campaign
from repro.errors import CampaignInterrupted
from repro.harness import campaign as harness_campaign
from repro.harness.campaign import CampaignConfig
from repro.harness.executor import CampaignSpec, execute_specs, results
from repro.harness.export import results_to_json
from repro.parallel import mode_names
from repro.targets import get_target, target_names

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "goldens", "exports.json")

#: The one cell that also runs through checkpoint kill-and-resume.
RESUME_CELL = ("cmfuzz", "dnsmasq")
#: Iteration counts at which the resume leg kills the campaign.
ABORT_POINTS = (1, 57, 250)


def golden_config(**overrides) -> CampaignConfig:
    base = dict(n_instances=2, duration_hours=1.0, seed=7,
                sample_interval=300.0)
    base.update(overrides)
    return CampaignConfig(**base)


def serial_export(mode: str, target: str) -> str:
    return results_to_json(
        [run_campaign(target, mode=mode, config=golden_config())])


def pooled_exports(cells, workers: int = 2) -> dict:
    """``(mode, target) -> export`` of ``cells`` run through the pool."""
    specs = [CampaignSpec(target=target, mode=mode, config=golden_config())
             for mode, target in cells]
    outcomes = execute_specs(specs, workers=workers)
    for outcome in outcomes:
        assert outcome.failure is None, outcome.failure
    return {cell: results_to_json([result])
            for cell, result in zip(cells, results(outcomes))}


def resume_export(checkpoint_dir: str, abort_at: int) -> str:
    """Kill the resume cell after ``abort_at`` iterations, resume it
    from its newest checkpoint, and return the resumed export."""
    mode, target = RESUME_CELL
    entry = get_target(target)
    config = golden_config(checkpoint_every=300.0,
                           checkpoint_dir=checkpoint_dir)

    def run(config, abort_hook=None):
        return harness_campaign.run_campaign(
            entry.target_cls, entry.state_model(), mode, config,
            abort_hook=abort_hook)

    try:
        run(config, abort_hook=lambda iterations, now: iterations >= abort_at)
    except CampaignInterrupted:
        pass  # the expected path; a tiny campaign may finish first
    return results_to_json(
        [run(dataclasses.replace(config, resume=True))])


def strip_instances(export: str) -> str:
    """Serialise an export with the per-instance detail removed."""
    records = json.loads(export)
    for record in records:
        record.pop("instances", None)
    return json.dumps(records, sort_keys=True)


def all_cells():
    return [(mode, target) for mode in mode_names()
            for target in target_names()]


def load_goldens() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)
