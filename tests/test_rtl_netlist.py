"""Unit tests for repro.rtl.netlist."""

import importlib.util
import json
import pathlib

import pytest

from repro.rtl.components import Register
from repro.rtl.netlist import Netlist

DATA = pathlib.Path(__file__).parent / "data"

_spec = importlib.util.spec_from_file_location(
    "capture_netlist_structure", DATA / "capture_netlist_structure.py"
)
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

#: Structure captured from the graph-library implementation the netlist
#: replaced, with ``tests/data/capture_netlist_structure.py``.
GOLDEN = json.loads((DATA / "netlist_structure.json").read_text())


@pytest.fixture
def simple_netlist() -> Netlist:
    """clk_ctrl -> icg -> reg -> logic, plus an isolated watermark pair."""
    return capture.simple_netlist()


class TestNetlistConstruction:
    def test_duplicate_name_rejected(self, simple_netlist):
        with pytest.raises(ValueError):
            simple_netlist.add_component(Register("reg", width=1))

    def test_unknown_role_rejected(self):
        netlist = Netlist("n")
        with pytest.raises(ValueError):
            netlist.add_component(Register("r"), role="mystery")

    def test_connect_requires_existing_nodes(self, simple_netlist):
        with pytest.raises(KeyError):
            simple_netlist.connect("reg", "missing")

    def test_contains_and_len(self, simple_netlist):
        assert "icg" in simple_netlist
        assert len(simple_netlist) == 6


class TestNetlistQueries:
    def test_role_lookup(self, simple_netlist):
        assert simple_netlist.role("wm_lfsr") == "watermark"
        assert simple_netlist.role("reg") == "functional"

    def test_components_filtered_by_role(self, simple_netlist):
        assert len(simple_netlist.components(role="watermark")) == 2

    def test_component_names_by_role(self, simple_netlist):
        assert sorted(simple_netlist.component_names(role="watermark")) == ["wm_lfsr", "wm_load"]

    def test_fan_in_fan_out(self, simple_netlist):
        assert simple_netlist.fan_in("reg") == ["icg"]
        assert simple_netlist.fan_out("reg") == ["logic"]

    def test_register_totals(self, simple_netlist):
        assert simple_netlist.total_registers == 8 + 12 + 64
        assert simple_netlist.registers_by_role("watermark") == 76

    def test_edges_iteration(self, simple_netlist):
        nets = {edge.net for edge in simple_netlist.edges()}
        assert "wmark" in nets


class TestNetlistStructure:
    def test_weakly_connected_clusters(self, simple_netlist):
        clusters = simple_netlist.weakly_connected_clusters()
        assert len(clusters) == 2
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [2, 4]

    def test_reachability(self, simple_netlist):
        assert simple_netlist.reachable_from(["clk_ctrl"]) == {"clk_ctrl", "icg", "reg", "logic"}

    def test_cone_of_influence(self, simple_netlist):
        assert simple_netlist.cone_of_influence(["logic"]) == {"clk_ctrl", "icg", "reg", "logic"}

    def test_remove_components(self, simple_netlist):
        pruned = simple_netlist.remove_components(["wm_lfsr", "wm_load"])
        assert len(pruned) == 4
        assert "wm_lfsr" not in pruned
        assert len(simple_netlist) == 6  # original untouched

    def test_remove_unknown_component_rejected(self, simple_netlist):
        with pytest.raises(KeyError):
            simple_netlist.remove_components(["ghost"])

    def test_dangling_inputs_after_removal(self, simple_netlist):
        pruned = simple_netlist.remove_components(["clk_ctrl"])
        assert "icg" in pruned.dangling_inputs()

    def test_subgraph_stats(self, simple_netlist):
        stats = simple_netlist.subgraph_stats(["wm_lfsr", "wm_load"])
        assert stats == {"instances": 2, "registers": 76, "cells": 76}


class TestNetlistStructureGolden:
    @pytest.mark.parametrize("name", ["baseline", "clock_modulation"])
    def test_robustness_netlist_matches_capture(self, name):
        netlist = capture.robustness_netlists()[name]
        assert capture.structure(netlist) == GOLDEN["robustness"][name]

    def test_dangling_inputs_after_removals_match_capture(self):
        assert capture.dangling_after_removals() == GOLDEN["simple_netlist"]

    def test_reconnecting_a_pair_renames_its_net_in_place(self, simple_netlist):
        simple_netlist.connect("reg", "logic", net="q2")
        assert [edge.net for edge in simple_netlist.edges()] == ["en", "gclk", "q2", "wmark"]

    def test_structural_queries_reject_unknown_instances(self, simple_netlist):
        with pytest.raises(KeyError):
            simple_netlist.reachable_from(["ghost"])
        with pytest.raises(KeyError):
            simple_netlist.cone_of_influence(["ghost"])
