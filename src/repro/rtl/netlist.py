"""Flattened netlist graph.

The netlist is a directed graph whose nodes are component instances and
whose edges are named connections (nets), held in insertion-ordered
dictionaries.  It is the structure on which the removal-attack analysis of
Section VI operates: a stand-alone load-circuit watermark forms a
weakly-connected cluster that can be excised without touching functional
logic, whereas the clock-modulation watermark shares its clock-gate path
with the functional IP block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Set

from repro.rtl.components import Component


@dataclass(frozen=True)
class NetlistEdge:
    """A directed connection between two component instances."""

    source: str
    target: str
    net: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.source} -> {self.target} [{self.net}]"


class _Instance(NamedTuple):
    component: Component
    role: str
    module: str


class Netlist:
    """A flattened design netlist.

    Nodes carry the :class:`Component` object plus metadata used by the
    analysis passes:

    ``role``
        ``"functional"``, ``"watermark"`` or ``"clock"`` -- the ground-truth
        label used to score attack precision/recall.
    ``module``
        The hierarchical module path the instance came from.

    Instances and connections iterate in insertion order.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._instances: Dict[str, _Instance] = {}
        # instance -> {driven instance: net name}, and instance -> drivers.
        self._successors: Dict[str, Dict[str, str]] = {}
        self._predecessors: Dict[str, Set[str]] = {}

    # -- construction --------------------------------------------------

    def add_component(
        self,
        component: Component,
        role: str = "functional",
        module: str = "",
        instance: Optional[str] = None,
    ) -> None:
        """Add a component instance to the netlist.

        ``instance`` is the instance name, by default the component's own
        name; a flattened hierarchy uses the full hierarchical path.
        """
        name = instance or component.name
        if name in self._instances:
            raise ValueError(f"duplicate component name: {name!r}")
        if role not in ("functional", "watermark", "clock"):
            raise ValueError(f"unknown role {role!r}")
        self._instances[name] = _Instance(component, role, module)
        self._successors[name] = {}
        self._predecessors[name] = set()

    def connect(self, source: str, target: str, net: str = "") -> None:
        """Add a directed connection (``source`` drives ``target``).

        Connecting the same pair again renames its net.
        """
        self._require([source, target])
        self._successors[source][target] = net or f"{source}->{target}"
        self._predecessors[target].add(source)

    # -- queries --------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._instances

    def __len__(self) -> int:
        return len(self._instances)

    def component(self, name: str) -> Component:
        """Return the component object stored under ``name``."""
        return self._instances[name].component

    def role(self, name: str) -> str:
        """Return the ground-truth role of an instance."""
        return self._instances[name].role

    def components(self, role: Optional[str] = None) -> List[Component]:
        """All components, optionally filtered by role."""
        return [
            instance.component
            for instance in self._instances.values()
            if role is None or instance.role == role
        ]

    def component_names(self, role: Optional[str] = None) -> List[str]:
        """Instance names, optionally filtered by role.

        For flattened hierarchies the instance name is the full
        hierarchical path, which may differ from the leaf component name.
        """
        return [
            name
            for name, instance in self._instances.items()
            if role is None or instance.role == role
        ]

    def edges(self) -> Iterator[NetlistEdge]:
        """Iterate over all connections, grouped by source instance."""
        for source, targets in self._successors.items():
            for target, net in targets.items():
                yield NetlistEdge(source=source, target=target, net=net)

    def fan_in(self, name: str) -> List[str]:
        """Instances driving ``name``."""
        return sorted(self._predecessors[name])

    def fan_out(self, name: str) -> List[str]:
        """Instances driven by ``name``."""
        return sorted(self._successors[name])

    @property
    def total_registers(self) -> int:
        """Total number of flip-flops across all instances."""
        return sum(c.register_count for c in self.components())

    @property
    def total_cells(self) -> int:
        """Total number of library cells across all instances."""
        return sum(c.cell_count for c in self.components())

    def registers_by_role(self, role: str) -> int:
        """Flip-flop count restricted to one role."""
        return sum(c.register_count for c in self.components(role))

    # -- structural analysis --------------------------------------------

    def weakly_connected_clusters(self) -> List[Set[str]]:
        """Weakly-connected clusters, in insertion order of their first instance."""
        clusters: List[Set[str]] = []
        clustered: Set[str] = set()
        for name in self._instances:
            if name not in clustered:
                cluster = self._search([name], self._successors, self._predecessors)
                clustered |= cluster
                clusters.append(cluster)
        return clusters

    def reachable_from(self, sources: Iterable[str]) -> Set[str]:
        """All instances reachable (forward) from the given sources."""
        return self._search(self._require(sources), self._successors)

    def cone_of_influence(self, sinks: Iterable[str]) -> Set[str]:
        """All instances that can influence the given sinks (backward cone)."""
        return self._search(self._require(sinks), self._predecessors)

    def remove_components(self, names: Iterable[str]) -> "Netlist":
        """Return a copy of the netlist with the given instances removed.

        This is the primitive a removal attack applies; the robustness
        analysis then checks how much functional logic lost its drivers.
        """
        removed = set(names)
        missing = removed - self._instances.keys()
        if missing:
            raise KeyError(f"cannot remove unknown components: {sorted(missing)}")
        pruned = Netlist(f"{self.name}~removed")
        for name, instance in self._instances.items():
            if name not in removed:
                pruned._instances[name] = instance
                pruned._successors[name] = {
                    target: net for target, net in self._successors[name].items() if target not in removed
                }
                pruned._predecessors[name] = self._predecessors[name] - removed
        return pruned

    def dangling_inputs(self) -> List[str]:
        """Sequential/functional instances that lost all their drivers.

        A register or clock gate with zero fan-in after an edit indicates a
        broken design -- the quantity used to show that removing the
        clock-modulation watermark impairs system functionality.
        """
        return sorted(
            name
            for name, instance in self._instances.items()
            if instance.component.cell_type in ("dff", "icg", "register_bank")
            and not self._predecessors[name]
        )

    def subgraph_stats(self, names: Iterable[str]) -> Dict[str, int]:
        """Cell/register counts of a candidate sub-circuit."""
        names = list(names)
        registers = sum(self.component(n).register_count for n in names)
        cells = sum(self.component(n).cell_count for n in names)
        return {"instances": len(names), "registers": registers, "cells": cells}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Netlist(name={self.name!r}, instances={len(self)}, "
            f"edges={sum(map(len, self._successors.values()))})"
        )

    # -- internals --------------------------------------------------------

    def _require(self, names: Iterable[str]) -> List[str]:
        """``names`` as a list, or :class:`KeyError` naming the first unknown one."""
        required = list(names)
        for name in required:
            if name not in self._instances:
                raise KeyError(f"component {name!r} not present in netlist {self.name!r}")
        return required

    def _search(self, sources: Iterable[str], *adjacency: Mapping[str, Iterable[str]]) -> Set[str]:
        """``sources`` plus every instance reachable from them along ``adjacency``."""
        found = set(sources)
        frontier = list(found)
        while frontier:
            name = frontier.pop()
            for neighbours in adjacency:
                for neighbour in neighbours[name]:
                    if neighbour not in found:
                        found.add(neighbour)
                        frontier.append(neighbour)
        return found
