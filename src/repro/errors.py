"""Exception hierarchy shared across the CMFuzz reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigModelError(ReproError):
    """Raised for malformed configuration sources or model construction failures."""


class ExtractionError(ConfigModelError):
    """Raised when a configuration source cannot be parsed into items."""


class AllocationError(ReproError):
    """Raised when the allocation algorithm receives invalid inputs."""


class StartupError(ReproError):
    """Raised by a target when a configuration combination prevents startup.

    Conflicting configuration pairs manifest as startup failures; the
    relation quantifier maps this to zero startup coverage (no edge).
    """

    def __init__(self, message, conflicting=()):
        super().__init__(message)
        self.conflicting = tuple(conflicting)


class TargetError(ReproError):
    """Raised for invalid use of a protocol target."""


class TargetHang(TargetError):
    """Raised when a target stops responding within the send timeout.

    Real SUTs hang on startup or mid-session; the harness observes this
    as a timed-out send. The chaos layer raises it deterministically and
    the supervisor's watchdog charges the timeout to simulated time.
    """


class FuzzingError(ReproError):
    """Raised for invalid data/state model or engine usage."""


class NamespaceError(ReproError):
    """Raised for network namespace misuse (port collisions, unknown peers)."""


class HarnessError(ReproError):
    """Raised for invalid campaign configuration."""


class CacheUnavailableError(HarnessError):
    """Raised when the on-disk cache directory cannot be created or written.

    Validated eagerly when a cache is constructed — before any campaign
    or probe work starts — so a bad ``CMFUZZ_CACHE_DIR`` fails with a
    clear message (and a ``--no-cache`` hint) instead of an opaque
    ``OSError`` mid-run.
    """


class CheckpointError(HarnessError):
    """Raised when a campaign checkpoint cannot be written or restored."""


class SchemaVersionError(ReproError):
    """Raised when a persisted artifact carries an incompatible schema.

    Covers both checkpoint blobs and export JSON: rather than
    mis-deserializing state written by an older (or newer) layout, the
    loader refuses with the found vs. supported version spelled out.
    """

    def __init__(self, artifact, found, supported):
        super().__init__(
            "%s carries schema_version %r but this build supports %r; "
            "regenerate it with the current code (or delete the stale "
            "artifact)" % (artifact, found, supported)
        )
        self.artifact = artifact
        self.found = found
        self.supported = supported


class CampaignInterrupted(HarnessError):
    """Raised when SIGTERM/SIGINT stops a checkpointing campaign.

    The final checkpoint has already been persisted when this is
    raised; re-running the same campaign with ``resume=True`` (CLI
    ``--resume``) continues from exactly the interrupted iteration.
    """

    def __init__(self, message, checkpoint_path=None, sim_time=0.0,
                 iterations=0):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path
        self.sim_time = sim_time
        self.iterations = iterations
