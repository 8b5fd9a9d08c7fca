"""The mode interface the campaign loop drives."""

from __future__ import annotations

from typing import List

from repro.fuzzing.engine import IterationResult
from repro.parallel.instance import FuzzingInstance


class ParallelMode:
    """Strategy object deciding how N parallel instances are set up.

    Lifecycle, driven by :func:`repro.harness.campaign.run_campaign`:

    1. :meth:`create_instances` — build (but not start) the instances;
       may consume setup time by advancing ``ctx.clock`` (CMFuzz's
       quantification phase does).
    2. Per fuzzing round, :meth:`after_iteration` is invoked with each
       instance's result.
    3. Every ``ctx.sync_interval`` of simulated time, :meth:`on_sync`
       runs (seed synchronisation, saturation checks).
    4. When the supervisor quarantines or gives up on an instance,
       :meth:`on_instance_lost` runs so the scheduler can reallocate
       that instance's share of the model space across survivors;
       :meth:`on_instance_revived` undoes the reallocation when a
       revival probe brings the instance back.
    """

    name = "abstract"

    #: The mode's :class:`~repro.parallel.sync.SeedSynchronizer`, or
    #: ``None`` for a mode whose instances share no seeds: the campaign
    #: then has its engines queue nothing for broadcast.
    synchronizer = None

    def create_instances(self, ctx) -> List[FuzzingInstance]:
        raise NotImplementedError

    def setup_objects(self) -> List[object]:
        """What :meth:`create_instances` built that the loop never mutates.

        Checkpoints write these once per stream instead of once per
        save, and restore them with identity intact; a mode that
        mutates one after set-up must not list it. Default: nothing.
        """
        return []

    def after_iteration(self, ctx, instance: FuzzingInstance,
                        result: IterationResult) -> None:
        """Per-iteration hook; default: nothing."""

    def on_sync(self, ctx) -> None:
        """Periodic hook; default: nothing."""

    def on_instance_lost(self, ctx, instance: FuzzingInstance) -> None:
        """An instance was quarantined; default: nothing."""

    def on_instance_revived(self, ctx, instance: FuzzingInstance) -> None:
        """A quarantined instance came back; default: nothing."""
