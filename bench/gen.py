"""Seeded scenario generator for the three benchmark workloads.

Cells sit on a line 800 m apart with a 600 m radius, so neighbours overlap by
400 m and a terminal walking the line hands over at every cell boundary. The
seed only permutes and perturbs: cell counts, waypoint counts, flow counts,
the FMIP share and the handover-style mix are fixed per workload, so the work
done (records, scans, handovers) barely moves between seeds and throughput
figures from different seeds are comparable.

Usage: python3 bench/gen.py WORKLOAD SEED OUTDIR
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

CELL_SPACING_M = 800.0
CELL_RADIUS_M = 600.0
SCAN_PERIOD_US = 500_000

WORKLOADS = ("long-walk", "multiflow-dense", "sweep-small")

# mbb_capable on gives make-before-break; off gives fast handover on FMIP
# cells and break-before-make elsewhere.
_SWEEP_CELLS = (3, 4, 5, 6, 7, 8)
_SWEEP_WAYPOINTS = (2, 3, 4, 5, 6)
_SWEEP_STYLES = ((True, 0.5), (False, 0.0), (False, 1.0), (False, 0.5))
_SWEEP_JITTER_US = (0, 20_000)
SWEEP_SCENARIOS = 200


def _fmip_mask(rng: random.Random, cells: int, share: float) -> list[bool]:
    """Exactly round(cells * share) FMIP cells, placed by the seed."""
    count = round(cells * share)
    mask = [True] * count + [False] * (cells - count)
    rng.shuffle(mask)
    return mask


def scenario(
    rng: random.Random,
    *,
    cells: int,
    waypoints: int,
    flows: int,
    duration_us: int,
    jitter_us: int,
    fmip_share: float,
    mbb_capable: bool,
    flow_stagger_us: int = 0,
) -> dict:
    """One scenario document: a walk along the cell line from the first to the last cell."""
    fmip = _fmip_mask(rng, cells, fmip_share)
    cell_docs = []
    path_models = {}
    for i in range(cells):
        wlan = i % 2 == 0
        network_id = f"net-{i + 1}"
        cell_id = f"cell-{i + 1:03d}"
        cell_docs.append(
            {
                "cell_id": cell_id,
                "network_id": network_id,
                "rat": "wlan" if wlan else "cellular",
                "center": [i * CELL_SPACING_M, 0.0],
                "radius_m": CELL_RADIUS_M,
                "link_setup_us": rng.randrange(40_000, 60_001, 1000),
                "link_teardown_us": rng.randrange(8_000, 12_001, 1000),
                "locator_config_us": rng.randrange(80_000, 120_001, 1000),
                "supports_fmip": fmip[i],
                "capacity": {
                    "bandwidth_kbps": 2000 if wlan else 800,
                    "max_latency_ms": 40 if wlan else 90,
                },
            }
        )
        path_models[f"{network_id}/{cell_id}"] = {
            "bottleneck_bandwidth_kbps": rng.randrange(1500, 2501, 100),
            "path_latency_ms": rng.randrange(30, 51),
            "policy_allowed": True,
        }

    length = (cells - 1) * CELL_SPACING_M
    step_x = length / (waypoints - 1)
    step_t = duration_us // (waypoints - 1)
    trajectory = []
    for k in range(waypoints):
        end = k in (0, waypoints - 1)
        x = k * step_x + (0.0 if end else rng.uniform(-0.2, 0.2) * step_x)
        y = 0.0 if end else rng.uniform(-40.0, 40.0)
        trajectory.append({"t_us": k * step_t, "xy": [round(x, 3), round(y, 3)]})

    return {
        "seed": rng.randrange(2**31),
        "scan_period_us": SCAN_PERIOD_US,
        "jitter_us": jitter_us,
        "cells": cell_docs,
        "trajectory": trajectory,
        "policy": {
            "forbidden_networks": [],
            "min_radio_score": 0.05,
            "hysteresis": 0.1,
            "weight_radio": 0.5,
            "weight_path": 0.5,
            "mbb_capable": mbb_capable,
        },
        "path_models": path_models,
        "latencies": {"binding_rtt_us": 40_000, "fmip_oneway_us": 5_000},
        "flows": [
            {
                "id": f + 1,
                "requested_qos": {"bandwidth_kbps": 1000, "max_latency_ms": 80},
                "start_us": f * flow_stagger_us,
            }
            for f in range(flows)
        ],
    }


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The generated (name, scenario) pairs of a workload, in run order."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "long-walk":
        # Thousands of waypoints and hundreds of cells: position() and scan()
        # walk all of them on every tick, and bbm/fmip chains alternate.
        return [
            (
                "long-walk",
                scenario(
                    rng, cells=200, waypoints=2000, flows=1, duration_us=1_200_000_000,
                    jitter_us=20_000, fmip_share=0.5, mbb_capable=False,
                ),
            )
        ]
    if workload == "multiflow-dense":
        # Sixteen staggered flows share each tick, so scans repeat per flow.
        return [
            (
                "multiflow-dense",
                scenario(
                    rng, cells=50, waypoints=200, flows=16, duration_us=400_000_000,
                    jitter_us=0, fmip_share=0.5, mbb_capable=False,
                    flow_stagger_us=2_000_000,
                ),
            )
        ]
    if workload == "sweep-small":
        # Scenario i takes its shape from i alone, so the mix of sizes, styles
        # and jitter settings is the same for every seed.
        out = []
        for i in range(SWEEP_SCENARIOS):
            cells = _SWEEP_CELLS[i % len(_SWEEP_CELLS)]
            block, style = divmod(i // len(_SWEEP_CELLS), len(_SWEEP_STYLES))
            mbb, share = _SWEEP_STYLES[style]
            jitter = _SWEEP_JITTER_US[block % len(_SWEEP_JITTER_US)]
            out.append(
                (
                    f"sweep-{i:03d}",
                    scenario(
                        rng, cells=cells, waypoints=_SWEEP_WAYPOINTS[i % len(_SWEEP_WAYPOINTS)],
                        flows=1, duration_us=cells * 6_000_000, jitter_us=jitter,
                        fmip_share=share, mbb_capable=mbb,
                    ),
                )
            )
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def write_workload(workload: str, seed: int, outdir: Path, bundled_dir: Path | None = None) -> list[Path]:
    """Write the workload's scenario files; sweep-small also copies the bundled ones first."""
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    if workload == "sweep-small" and bundled_dir is not None:
        for source in sorted(bundled_dir.glob("*.json")):
            target = outdir / f"bundled-{source.name}"
            target.write_bytes(source.read_bytes())
            paths.append(target)
    for name, doc in generate(workload, seed):
        target = outdir / f"{name}.json"
        target.write_text(dumps(doc), encoding="utf-8")
        paths.append(target)
    return paths


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit(__doc__.strip().splitlines()[-1])
    for written in write_workload(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])):
        print(written)
