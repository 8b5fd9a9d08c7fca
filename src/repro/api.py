"""The stable public facade over the CMFuzz reproduction pipeline.

Five entry points cover the whole workflow — each stage usable on its
own, every knob carried by a typed config dataclass instead of a kwargs
sprawl:

========================  ===================================================
:func:`extract_model`     configuration sources → :class:`ConfigurationModel`
:func:`quantify_relations` model → relation graph + quantification report
:func:`allocate_groups`   relation graph → per-instance entity groups
:func:`run_campaign`      one fuzzing campaign (by target/mode name)
:func:`compare_modes`     the full fuzzer comparison grid for one subject
========================  ===================================================

Model-build scheduling (probe workers, on-disk probe cache) lives in
:class:`ModelBuildConfig`; campaign scheduling reuses
:class:`~repro.harness.campaign.CampaignConfig`.

The historical positional signature
``run_campaign(target_cls, state_model, mode_obj, config)`` was removed
after its deprecation cycle; call it with a registry target name (and
optionally a live mode object) instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.core.allocation import AllocationResult, allocate
from repro.core.extraction import extract_entities
from repro.core.model import ConfigurationModel, RelationAwareModel
from repro.core.probes import build_probe_executor
from repro.core.relation import QuantificationReport, RelationQuantifier
from repro.harness.campaign import CampaignConfig, CampaignResult
from repro.harness.campaign import run_campaign as _run_campaign_live
from repro.telemetry import NULL_TELEMETRY

__all__ = [
    "ModelBuildConfig",
    "allocate_groups",
    "compare_modes",
    "extract_model",
    "quantify_relations",
    "run_campaign",
]

#: A target: its registry name ("mosquitto") or the target class itself.
TargetLike = Union[str, type]


@dataclass(frozen=True)
class ModelBuildConfig:
    """Knobs for the model-build pipeline (extraction → quantification).

    Attributes:
        max_combinations: Cap on value combinations probed per entity
            pair (the cartesian product is truncated deterministically).
        aggregate: ``"max"`` (paper: peak interaction effect) or
            ``"mean"`` (the A3 ablation).
        synergy: Score combinations by interaction excess rather than
            absolute startup coverage.
        workers: Worker processes for the probe fan-out; ``1`` probes
            serially in-process. Results are bit-identical either way.
        cache: Memoise probe outcomes in the content-addressed on-disk
            cache (``.cmfuzz-cache/probes/``); a warm cache rebuilds the
            model without launching the target once.
        cache_dir: Cache root override (default ``$CMFUZZ_CACHE_DIR`` or
            ``.cmfuzz-cache/``).
        probe_timeout: Per-probe wall-clock budget in seconds (pooled
            probing only).
        retries: Failed probe-batch retries (on the pool's next idle
            worker).
    """

    max_combinations: int = 36
    aggregate: str = "max"
    synergy: bool = True
    workers: int = 1
    cache: bool = False
    cache_dir: Optional[str] = None
    probe_timeout: Optional[float] = None
    retries: int = 1


def _resolve_target(target: TargetLike) -> Tuple[type, str]:
    """Accept a registry name or a target class; return ``(cls, name)``."""
    from repro.targets.registry import get_target

    if isinstance(target, str):
        return get_target(target).target_cls, target
    return target, target.NAME


def extract_model(target: TargetLike) -> ConfigurationModel:
    """Identify a target's configuration model (Algorithm 1, §III-A).

    Extracts configuration items from the target's CLI/file sources and
    lifts each into a 4-tuple entity.
    """
    target_cls, _ = _resolve_target(target)
    entities = extract_entities(
        target_cls.config_sources(), target_cls.entity_overrides()
    )
    return ConfigurationModel(entities)


def quantify_relations(
    target: TargetLike,
    model: Optional[ConfigurationModel] = None,
    config: Optional[ModelBuildConfig] = None,
    on_fault=None,
    telemetry=None,
) -> Tuple[RelationAwareModel, QuantificationReport]:
    """Quantify pairwise relations via startup probes (§III-B1).

    Args:
        target: Registry name or target class to probe.
        model: The configuration model; extracted from ``target`` when
            omitted.
        config: Probe scheduling and scoring knobs.
        on_fault: Callback receiving each
            :class:`~repro.targets.faults.SanitizerFault` a probe
            triggers (fired once per logical probe, identically whether
            outcomes were executed or served from the cache).
        telemetry: Optional :class:`repro.telemetry.Telemetry` for
            ``modelbuild.*`` counters and per-phase spans.

    Returns:
        The relation-aware model and the quantification report.

    Raises:
        CacheUnavailableError: When ``config.cache`` is enabled but the
            cache directory is unusable (pass ``cache=False`` to run
            without it).
    """
    cfg = config or ModelBuildConfig()
    target_cls, name = _resolve_target(target)
    if model is None:
        model = extract_model(target_cls)
    executor = build_probe_executor(
        name, workers=cfg.workers, cache=cfg.cache, cache_dir=cfg.cache_dir,
        timeout=cfg.probe_timeout, retries=cfg.retries, telemetry=telemetry,
    )
    quantifier = RelationQuantifier(
        max_combinations=cfg.max_combinations, aggregate=cfg.aggregate,
        synergy=cfg.synergy, executor=executor, on_fault=on_fault,
        telemetry=telemetry or NULL_TELEMETRY,
    )
    return quantifier.quantify(model)


def allocate_groups(
    relation_model: RelationAwareModel, n_instances: int = 4
) -> AllocationResult:
    """Group entities cohesively across instances (Algorithm 2, §III-B2)."""
    return allocate(relation_model, n_instances)


def run_campaign(
    target,
    mode="cmfuzz",
    config: Optional[CampaignConfig] = None,
    mode_kwargs: Optional[Dict[str, Any]] = None,
    cache: bool = False,
    cache_dir: Optional[str] = None,
) -> CampaignResult:
    """Run one fuzzing campaign.

    Registry names, typed config::

        result = run_campaign("mosquitto", mode="cmfuzz",
                              config=CampaignConfig(duration_hours=6.0))

    ``mode`` may also be a live :class:`~repro.parallel.base.ParallelMode`
    instance for custom modes. With ``cache=True`` (registry modes only)
    the campaign outcome is memoised on disk exactly like
    :func:`repro.harness.executor.execute_specs` — note cached results
    rebuild without live instance objects.
    """
    from repro.parallel.base import ParallelMode

    if not isinstance(target, str) and not isinstance(mode, (str, ParallelMode)):
        raise TypeError(
            "the legacy positional run_campaign(target_cls, state_model, "
            "mode, config) form was removed; call "
            "run_campaign('<target name>', mode='<mode name>', config=...) "
            "instead")

    target_cls, name = _resolve_target(target)
    if not isinstance(mode, str):
        if cache:
            raise ValueError(
                "cache=True requires a registry mode name (the cache key "
                "derives from it); got a live mode object")
        from repro.targets.registry import get_target

        return _run_campaign_live(target_cls, get_target(name).state_model(),
                                  mode, config)
    if cache:
        from repro.harness.executor import (
            CampaignSpec,
            execute_specs,
            results,
        )

        cells = execute_specs(
            [CampaignSpec(target=name, mode=mode,
                          mode_kwargs=dict(mode_kwargs or {}),
                          config=config or CampaignConfig())],
            cache=True, cache_dir=cache_dir,
        )
        return results(cells)[0]
    from repro.parallel import create_mode
    from repro.targets.registry import get_target

    return _run_campaign_live(
        target_cls, get_target(name).state_model(),
        create_mode(mode, **dict(mode_kwargs or {})), config,
    )


def compare_modes(
    target: TargetLike,
    modes: Sequence[str] = ("cmfuzz", "peach", "spfuzz"),
    repetitions: int = 1,
    config: Optional[CampaignConfig] = None,
    workers: int = 1,
    cache: bool = False,
    cache_dir: Optional[str] = None,
    mode_factories: Optional[Dict[str, Any]] = None,
    backend: Optional[str] = None,
    coordinator: Optional[str] = None,
):
    """Run every mode against one subject and return the comparison.

    The workhorse behind the paper's Table I / Table II / Figure 4
    protocols: ``repetitions`` campaigns per mode (seeds spaced like
    :func:`~repro.harness.campaign.run_repeated`), optionally fanned
    across ``workers`` processes and memoised on disk.

    Args:
        target: Registry name or target class.
        modes: Registry mode names (or keys into ``mode_factories``).
        repetitions: Campaigns per mode.
        config: Shared campaign configuration (seed schedule derives
            from its seed).
        workers: Campaign cells run in parallel; ``1`` is in-process and
            bit-identical.
        cache: Memoise campaign outcomes on disk.
        cache_dir: Cache root override.
        mode_factories: Optional ``{name: factory}`` for custom modes;
            those cells cannot cross a process boundary and run serially.
        backend: ``"local"`` (default) or ``"fleet"`` — dispatch the
            registry-mode cells through the :mod:`repro.fleet` control
            plane instead of the local pool. Both fold results in spec
            order, so the comparison is byte-identical either way.
        coordinator: Fleet backend only: a running coordinator URL;
            omitted, an ephemeral in-process fleet is used.

    Returns:
        :class:`repro.harness.experiments.SubjectComparison`.
    """
    from repro.harness.experiments import _run_fuzzers

    _, name = _resolve_target(target)
    return _run_fuzzers(
        name, tuple(modes), repetitions, config,
        mode_factories=mode_factories, workers=workers, cache=cache,
        cache_dir=cache_dir, backend=backend, coordinator=coordinator,
    )
