"""In-process network namespace simulation.

The paper isolates each fuzzing instance in a Linux network namespace via
``ip netns`` to prevent cross-contamination. We reproduce the semantics in
process: each :class:`NetworkNamespace` owns a private port space, so a
port bound in one namespace is still free in every other. Packets need
no data plane: an instance's engine hands them straight to its own
target (:class:`~repro.fuzzing.engine.DirectTransport`).
"""

from repro.netns.namespace import NetworkNamespace, NamespaceManager

__all__ = ["NamespaceManager", "NetworkNamespace"]
