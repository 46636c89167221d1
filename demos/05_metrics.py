"""Realism metrics: how far is a simulation from the recording it mimics.

Compares a deliberately imperfect "simulation" (the recorded walkers,
slightly sped up and offset) against the original recording, then sweeps
the Voronoi profile over the measurement area and prints fundamental
diagram rows.
"""

import numpy as np

from crowdtcn.evaluate import (
    TrajectoryPair,
    ete_pete,
    fde,
    fundamental_diagram,
    profiles,
    tde,
    tte_ptte,
)
from crowdtcn.ingest import Trajectory
from crowdtcn.synth import corridor_dataset

dataset = corridor_dataset(n_train=2, n_test=10, seed=5)
scenario = dataset.scenario

experiment = {}
simulation = {}
for track in dataset.testing:
    stride = round(scenario.frame_rate * scenario.dt)
    pos = track.positions[::stride]
    enter = int(track.frames[0] // stride)
    experiment[track.id] = Trajectory(track.id, enter, pos, scenario.dt)
    # imperfect twin: drop every 8th step (faster) and drift 6 cm sideways
    keep = [k for k in range(len(pos)) if k % 8 != 7]
    spos = pos[keep] + np.array([0.0, 0.06])
    simulation[track.id] = Trajectory(track.id, enter, spos, scenario.dt)

pair = TrajectoryPair(experiment, simulation)
ete, pete = ete_pete(pair)  # the step comes from the trajectories' own dt
tte_t, ptte_t = tte_ptte(pair)
tde_t = tde(pair)
fde_t = fde(pair)
print(f"{len(pair.matched_ids)} matched pedestrians")
print(f"egress time error:     {ete:.2f} s ({pete:.1%} of the recorded egress)")
print(f"travel time error:     mean {tte_t.mean:.2f} s, p95 {tte_t.p95:.2f} s")
print(f"  as fraction:         mean {ptte_t.mean:.1%}, p95 {ptte_t.p95:.1%}")
print(f"trajectory displacement: mean {tde_t.mean:.3f} m, p95 {tde_t.p95:.3f} m")
print(f"final displacement:      mean {fde_t.mean:.3f} m, p95 {fde_t.p95:.3f} m")

series = profiles(
    experiment,
    scenario.walkable_polygon,
    scenario.measurement_area,
    width=scenario.measurement_width,
    label="recording",
)
print(f"\nVoronoi profile over the measurement area: {len(series)} samples")
dens = np.asarray(series.density)
vels = np.asarray(series.velocity)
print(f"  density  {dens.min():.3f}..{dens.max():.3f} 1/m^2")
print(f"  velocity {vels.min():.3f}..{vels.max():.3f} m/s")

rows = fundamental_diagram([series])
print("\nfundamental diagram rows (label, step, density, velocity, specific flow):")
for row in rows[:: max(1, len(rows) // 6)]:
    print(f"  {row[0]} step {row[1]:3d}: rho={row[2]:.3f}  v={row[3]:.3f}  J_s={row[4]:.3f}")
