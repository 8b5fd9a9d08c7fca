"""Tests for the in-process network namespace simulation."""

import pytest

from repro.errors import NamespaceError
from repro.netns.namespace import NamespaceManager, NetworkNamespace


class TestNetworkNamespace:
    def test_double_bind_rejected(self):
        ns = NetworkNamespace("ns0")
        ns.bind(1883)
        with pytest.raises(NamespaceError):
            ns.bind(1883)

    def test_invalid_port_rejected(self):
        ns = NetworkNamespace("ns0")
        for port in (0, -1, 70000):
            with pytest.raises(NamespaceError):
                ns.bind(port)

    def test_release_frees_port(self):
        ns = NetworkNamespace("ns0")
        ns.bind(53)
        ns.release(53)
        ns.bind(53)

    def test_release_unbound_raises(self):
        with pytest.raises(NamespaceError):
            NetworkNamespace("ns0").release(53)

    def test_isolation_between_namespaces(self):
        ns_a, ns_b = NetworkNamespace("a"), NetworkNamespace("b")
        ns_a.bind(1883)
        assert ns_b.bound_ports() == []
        with pytest.raises(NamespaceError):
            ns_b.release(1883)

    def test_same_port_bindable_in_two_namespaces(self):
        ns_a, ns_b = NetworkNamespace("a"), NetworkNamespace("b")
        ns_a.bind(1883)
        ns_b.bind(1883)
        assert ns_a.bound_ports() == ns_b.bound_ports() == [1883]

    def test_destroyed_namespace_unusable(self):
        ns = NetworkNamespace("a")
        ns.destroy()
        with pytest.raises(NamespaceError):
            ns.bind(80)
        with pytest.raises(NamespaceError):
            ns.release(80)

    def test_destroy_closes_channels(self):
        # Destroying a namespace closes every port bound in it.
        ns = NetworkNamespace("a")
        ns.bind(80)
        ns.bind(443)
        ns.destroy()
        assert ns.destroyed
        assert ns.bound_ports() == []

    def test_bound_ports_sorted(self):
        ns = NetworkNamespace("a")
        ns.bind(90)
        ns.bind(10)
        assert ns.bound_ports() == [10, 90]


class TestNamespaceManager:
    def test_duplicate_create_rejected(self):
        manager = NamespaceManager()
        manager.create("x")
        with pytest.raises(NamespaceError):
            manager.create("x")

    def test_recreate_after_destroy_allowed(self):
        manager = NamespaceManager()
        manager.create("x").destroy()
        assert not manager.create("x").destroyed

    def test_destroy_all(self):
        manager = NamespaceManager()
        namespaces = [manager.create("a"), manager.create("b")]
        namespaces[0].bind(1883)
        manager.destroy_all()
        assert all(ns.destroyed for ns in namespaces)
        assert namespaces[0].bound_ports() == []
