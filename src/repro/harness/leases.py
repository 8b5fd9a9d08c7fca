"""The lease table: the one state machine for cell attempts and retries.

A :class:`LeaseTable` owns an ordered list of cells — one fleet
session's, or one :func:`~repro.harness.pool.execute_tasks` call's —
and is the only bookkeeping for their attempts, retries, timeouts and
failures, so the process pool and the fleet coordinator settle cells
under one policy. A :class:`Cell` carries an opaque ``payload`` and
``outcome``: wire blobs in the coordinator, tasks and results in the
pool. The state machine per cell::

    PENDING --lease()--> LEASED --complete()--> DONE
       ^                   |  \\--fail()/overrun()--> PENDING (attempt kept)
       |                   |                         ... or FAILED (retries out)
       +--expire/release---+
          (epoch+1, attempt refunded)

- **Fencing epochs.** Every (re)assignment bumps the cell's epoch, and
  the epoch travels with the grant. A report under a stale epoch — a
  zombie finishing work the table already took back — is discarded.
  The first report per epoch wins; duplicates are rejected.
- **No double lease.** ``lease()`` only hands out PENDING cells, and a
  LEASED cell re-pends (bumping its epoch) before anyone else can get
  it. An idle holder never takes a lease another holder has.
- **One charge policy.** Each grant charges one attempt. A failure the
  executor observes keeps it: an exception or worker exit (``fail``),
  or a budget overrun (``overrun``). Losing contact refunds it:
  heartbeat expiry (``expire``, ``expire_agent``) or a give-back
  (``release``).
- **Two clocks.** A lease lives ``lease_ttl`` seconds past its grant or
  its holder's last heartbeat (``None``, as in the pool, disables
  expiry). A cell's optional ``budget`` counts from the grant, and
  heartbeats do not extend it.

Time never comes from ``time.time()`` here: the owner injects ``now``
into every transition, which lets the hypothesis harness kill agents at
arbitrary points and replay the schedule exactly.
"""

from __future__ import annotations

import dataclasses
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CELL_DONE",
    "CELL_FAILED",
    "CELL_LEASED",
    "CELL_PENDING",
    "Cell",
    "CellFailure",
    "LeaseTable",
]

CELL_PENDING = "pending"
CELL_LEASED = "leased"
CELL_DONE = "done"
CELL_FAILED = "failed"


@dataclass
class CellFailure:
    """A structured record of why a cell could not produce a result."""

    kind: str  # "exception" | "timeout" | "worker-died"
    message: str
    traceback: str = ""
    exitcode: Optional[int] = None

    def __str__(self) -> str:
        return "[%s] %s" % (self.kind, self.message)

    @classmethod
    def from_exception(cls, exc: BaseException) -> "CellFailure":
        """The record of a cell body that raised ``exc``."""
        return cls(
            kind="exception",
            message="%s: %s" % (type(exc).__name__, exc),
            traceback="".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__)),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON form a fleet report and a cell result carry."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CellFailure":
        """Rebuild :meth:`to_dict`'s form; missing fields take defaults."""
        return cls(
            kind=payload.get("kind", "exception"),
            message=payload.get("message", ""),
            traceback=payload.get("traceback", ""),
            exitcode=payload.get("exitcode"),
        )


@dataclass
class Cell:
    """One cell's lease record."""

    index: int
    payload: Any
    #: Wall-clock seconds one grant may run, from the grant; ``None``
    #: (or 0) leaves the cell unbounded.
    budget: Optional[float] = None
    state: str = CELL_PENDING
    epoch: int = 0
    agent: str = ""
    leased_at: float = 0.0
    #: Heartbeat expiry of the live lease; ``None`` without a TTL.
    deadline: Optional[float] = None
    attempts: int = 0
    outcome: Any = None
    failure: Optional[CellFailure] = None
    from_cache: bool = False

    @property
    def open(self) -> bool:
        return self.state in (CELL_PENDING, CELL_LEASED)


@dataclass
class _Event:
    seq: int
    time: float
    cell_index: int
    state: str
    agent: str
    epoch: int


@dataclass
class LeaseTable:
    """Lease bookkeeping for one ordered list of cells."""

    cells: List[Cell]
    #: Seconds a lease lives past its grant or last heartbeat; ``None``
    #: disables heartbeat expiry.
    lease_ttl: Optional[float] = 15.0
    retries: int = 1
    events: List[_Event] = field(default_factory=list)

    @classmethod
    def for_payloads(cls, payloads: Sequence[Any],
                     budget: Optional[float] = None,
                     **kwargs: Any) -> "LeaseTable":
        """One cell per payload, all under the same ``budget``."""
        return cls(cells=[Cell(index=i, payload=payload, budget=budget)
                          for i, payload in enumerate(payloads)], **kwargs)

    # -- queries -----------------------------------------------------------

    @property
    def done(self) -> bool:
        """Every cell settled (successfully or with a final failure)."""
        return all(not cell.open for cell in self.cells)

    @property
    def failed(self) -> bool:
        return self.done and any(c.state == CELL_FAILED for c in self.cells)

    def leased_to(self, agent: str) -> List[Cell]:
        return [c for c in self.cells
                if c.state == CELL_LEASED and c.agent == agent]

    def _budget_ends(self) -> Dict[int, float]:
        return {c.index: c.leased_at + c.budget for c in self.cells
                if c.state == CELL_LEASED and c.budget}

    def next_overrun(self) -> Optional[float]:
        """When the earliest running budget runs out (``None``: none runs)."""
        return min(self._budget_ends().values(), default=None)

    # -- transitions -------------------------------------------------------

    def _record(self, cell: Cell, now: float) -> None:
        self.events.append(_Event(
            seq=len(self.events), time=now, cell_index=cell.index,
            state=cell.state, agent=cell.agent, epoch=cell.epoch,
        ))

    def _repend(self, cell: Cell, now: float) -> None:
        """Re-pend a leased cell: epoch bump fences the old holder out."""
        cell.state = CELL_PENDING
        cell.epoch += 1
        cell.agent = ""
        cell.leased_at = 0.0
        cell.deadline = None
        self._record(cell, now)

    def _revoke(self, cell: Cell, now: float) -> None:
        """Take a lease back unfinished (expiry, release): re-pend and
        refund the attempt its grant charged."""
        cell.attempts -= 1
        self._repend(cell, now)

    def _charge(self, cell: Cell, failure: CellFailure, now: float) -> None:
        """Keep the grant's attempt: re-pend while retries remain, else
        settle the cell as failed."""
        if cell.attempts <= self.retries:
            self._repend(cell, now)
        else:
            cell.state = CELL_FAILED
            cell.failure = failure
            self._record(cell, now)

    def _holds(self, cell: Cell, agent: str, epoch: int) -> bool:
        return cell.state == CELL_LEASED and cell.agent == agent \
            and cell.epoch == epoch

    def lease(self, agent: str, now: float) -> Optional[Cell]:
        """Grant the lowest-index PENDING cell to ``agent``, or ``None``."""
        cell = next((c for c in self.cells if c.state == CELL_PENDING), None)
        if cell is None:
            return None
        cell.state = CELL_LEASED
        cell.epoch += 1
        cell.agent = agent
        cell.leased_at = now
        cell.deadline = None if self.lease_ttl is None \
            else now + self.lease_ttl
        cell.attempts += 1
        self._record(cell, now)
        return cell

    def heartbeat(self, agent: str, now: float) -> int:
        """Extend every lease ``agent`` holds; returns how many.

        Only the heartbeat expiry moves; a cell's budget does not.
        """
        leases = self.leased_to(agent)
        if self.lease_ttl is not None:
            for cell in leases:
                cell.deadline = now + self.lease_ttl
        return len(leases)

    def expire(self, now: float) -> List[Cell]:
        """Re-pend every lease whose heartbeat deadline passed.

        The expired holder keeps executing as a zombie; its eventual
        report carries the pre-bump epoch and is discarded.
        """
        expired = [c for c in self.cells
                   if c.state == CELL_LEASED and c.deadline is not None
                   and now >= c.deadline]
        for cell in expired:
            self._revoke(cell, now)
        return expired

    def expire_agent(self, agent: str, now: float) -> List[Cell]:
        """Re-pend every lease of a dead agent immediately."""
        dropped = self.leased_to(agent)
        for cell in dropped:
            self._revoke(cell, now)
        return dropped

    def overrun(self, now: float) -> List[Cell]:
        """Fail every lease held past its cell's budget (kind ``timeout``).

        An overrun charges the attempt like any failure the executor
        observes. The late holder is fenced: its cell is re-pended under
        a new epoch or settled as failed.
        """
        late = [self.cells[index]
                for index, end in self._budget_ends().items() if now >= end]
        for cell in late:
            self._charge(cell, CellFailure(
                kind="timeout",
                message="cell exceeded its %.1fs budget" % cell.budget,
            ), now)
        return late

    def release(self, agent: str, index: int, epoch: int, now: float) -> bool:
        """A voluntary give-back (shutdown, injected death): re-pend
        without charging the retry budget. Stale epochs are ignored."""
        cell = self.cells[index]
        if not self._holds(cell, agent, epoch):
            return False
        self._revoke(cell, now)
        return True

    def complete(self, agent: str, index: int, epoch: int, outcome: Any,
                 now: float, from_cache: bool = False) -> Tuple[bool, str]:
        """Fold one successful result in; returns ``(accepted, reason)``."""
        cell = self.cells[index]
        if cell.state == CELL_DONE:
            return False, "duplicate: cell already settled"
        if cell.state != CELL_LEASED:
            return False, "no live lease (cell is %s)" % cell.state
        if cell.epoch != epoch:
            return False, ("stale epoch %d (current %d): lease was "
                           "reassigned" % (epoch, cell.epoch))
        if cell.agent != agent:
            return False, "lease held by %r, not %r" % (cell.agent, agent)
        cell.state = CELL_DONE
        cell.outcome = outcome
        cell.from_cache = from_cache
        self._record(cell, now)
        return True, ""

    def fail(self, agent: str, index: int, epoch: int,
             failure: CellFailure, now: float) -> Tuple[bool, str]:
        """Record an observed failure; re-pend while retries remain."""
        cell = self.cells[index]
        if not self._holds(cell, agent, epoch):
            return False, "no live lease under this epoch"
        self._charge(cell, failure, now)
        return True, ""
