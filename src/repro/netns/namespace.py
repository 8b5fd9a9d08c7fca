"""Network namespaces with isolated port spaces."""

from __future__ import annotations

from typing import Dict, List, Set

from repro.errors import NamespaceError


class NetworkNamespace:
    """A private network environment for one fuzzing instance.

    Ports bound here are invisible to every other namespace, so parallel
    instances of one target can all listen on its default port — the
    behaviour ``ip netns exec`` provides to the paper's instances.
    """

    def __init__(self, name: str):
        self.name = name
        self._bound: Set[int] = set()
        self.destroyed = False

    def bind(self, port: int) -> None:
        """Bind ``port`` in this namespace."""
        self._check_alive()
        if not 0 < port < 65536:
            raise NamespaceError("invalid port %r" % port)
        if port in self._bound:
            raise NamespaceError(
                "port %d already bound in namespace %r" % (port, self.name)
            )
        self._bound.add(port)

    def release(self, port: int) -> None:
        """Unbind ``port``."""
        self._check_alive()
        if port not in self._bound:
            raise NamespaceError("port %d not bound in namespace %r" % (port, self.name))
        self._bound.remove(port)

    def bound_ports(self) -> List[int]:
        return sorted(self._bound)

    def destroy(self) -> None:
        """Tear down the namespace, releasing every port."""
        self._bound.clear()
        self.destroyed = True

    def _check_alive(self) -> None:
        if self.destroyed:
            raise NamespaceError("namespace %r was destroyed" % self.name)

    def __repr__(self) -> str:
        return "NetworkNamespace(%r, ports=%s)" % (self.name, self.bound_ports())


class NamespaceManager:
    """Creates and tracks namespaces, one per parallel fuzzing instance."""

    def __init__(self):
        self._namespaces: Dict[str, NetworkNamespace] = {}

    def create(self, name: str) -> NetworkNamespace:
        if name in self._namespaces and not self._namespaces[name].destroyed:
            raise NamespaceError("namespace %r already exists" % name)
        namespace = NetworkNamespace(name)
        self._namespaces[name] = namespace
        return namespace

    def destroy_all(self) -> None:
        for namespace in self._namespaces.values():
            namespace.destroy()
