#!/usr/bin/env python3
"""Capture the graph structure the removal-attack analysis reads.

For the two embedded netlists the ``robustness`` scenario builds (the
load-circuit baseline and the clock-modulation watermark, both at the
default watermark configuration with four modulated clock gates), records
the ordered weakly-connected clusters, the fan-in and fan-out of every
instance and the ordered edge sequence.  For the small hand-built netlist
of ``tests/test_rtl_netlist.py`` it records which instances lose all their
drivers after each of a few removals.  ``tests/test_rtl_netlist.py`` pins
the ``Netlist`` implementation against the captured file.

Usage:  PYTHONPATH=src python tests/data/capture_netlist_structure.py
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List

from repro.core.config import ArchitectureKind, WatermarkConfig
from repro.core.embedding import embed_baseline, embed_clock_modulation
from repro.rtl.components import ClockGate, CombinationalBlock, Register
from repro.rtl.netlist import Netlist
from repro.soc.structure import build_soc_structure, clock_gate_paths

OUT = pathlib.Path(__file__).with_name("netlist_structure.json")

#: Clock gates the ``robustness`` scenario modulates by default.
MODULATED_GATES = 4

#: Removals applied to :func:`simple_netlist` before ``dangling_inputs()``.
REMOVALS = (["clk_ctrl"], ["icg"], ["wm_lfsr", "wm_load"], ["clk_ctrl", "wm_lfsr"])


def simple_netlist() -> Netlist:
    """clk_ctrl -> icg -> reg -> logic, plus an isolated watermark pair."""
    netlist = Netlist("design")
    netlist.add_component(CombinationalBlock("clk_ctrl", gate_count=4), role="functional")
    netlist.add_component(ClockGate("icg"), role="functional")
    netlist.add_component(Register("reg", width=8), role="functional")
    netlist.add_component(CombinationalBlock("logic", gate_count=10), role="functional")
    netlist.add_component(Register("wm_lfsr", width=12), role="watermark")
    netlist.add_component(Register("wm_load", width=64), role="watermark")
    netlist.connect("clk_ctrl", "icg", net="en")
    netlist.connect("icg", "reg", net="gclk")
    netlist.connect("reg", "logic", net="q")
    netlist.connect("wm_lfsr", "wm_load", net="wmark")
    return netlist


def robustness_netlists() -> Dict[str, Netlist]:
    """The two embedded netlists of the ``robustness`` scenario."""
    config = WatermarkConfig()
    baseline = embed_baseline(
        build_soc_structure(name="soc_baseline"),
        WatermarkConfig(
            architecture=ArchitectureKind.BASELINE_LOAD_CIRCUIT,
            lfsr_width=config.lfsr_width,
            lfsr_seed=config.lfsr_seed,
            load_registers=config.load_registers,
        ),
    )
    host = build_soc_structure(name="soc_clockmod")
    clock_modulation = embed_clock_modulation(
        host, clock_gate_paths(host)[:MODULATED_GATES], config
    )
    return {"baseline": baseline.netlist(), "clock_modulation": clock_modulation.netlist()}


def structure(netlist: Netlist) -> dict:
    """Cluster order, per-instance fan-in/fan-out and edge order of ``netlist``.

    Instance names are recorded relative to the top-level module.
    """
    prefix = f"{netlist.name}/"

    def local(names):
        return [name.removeprefix(prefix) for name in names]

    names = netlist.component_names()
    return {
        "clusters": [local(sorted(cluster)) for cluster in netlist.weakly_connected_clusters()],
        "fan_in": {name.removeprefix(prefix): local(netlist.fan_in(name)) for name in names},
        "fan_out": {name.removeprefix(prefix): local(netlist.fan_out(name)) for name in names},
        "edges": [local([edge.source, edge.target]) + [edge.net] for edge in netlist.edges()],
    }


def dangling_after_removals() -> List[dict]:
    return [
        {"removed": removed, "dangling": simple_netlist().remove_components(removed).dangling_inputs()}
        for removed in REMOVALS
    ]


def capture() -> dict:
    return {
        "robustness": {name: structure(net) for name, net in robustness_netlists().items()},
        "simple_netlist": dangling_after_removals(),
    }


def render(value, indent: str = "") -> str:
    """``value`` as JSON with one line per innermost list or mapping."""
    children = value.values() if isinstance(value, dict) else value
    if not isinstance(value, (dict, list)) or not any(isinstance(v, (dict, list)) for v in children):
        return json.dumps(value)
    inner = indent + " "
    if isinstance(value, dict):
        lines = [f"{inner}{json.dumps(key)}: {render(item, inner)}" for key, item in value.items()]
        return "{\n" + ",\n".join(lines) + f"\n{indent}}}"
    lines = [inner + render(item, inner) for item in value]
    return "[\n" + ",\n".join(lines) + f"\n{indent}]"


def main() -> None:
    OUT.write_text(render(capture()) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
