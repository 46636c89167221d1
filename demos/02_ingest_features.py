"""From raw tracks to feature frames.

Generates a synthetic corridor recording, ingests it (clip, smooth,
resample), and inspects the social-visual features of one pedestrian:
nearest entity per angular sector plus forward wall-ray hits.
"""

import tempfile
from pathlib import Path

import numpy as np

from crowdtcn.features import NeighborKind, feature_dim
from crowdtcn.ingest import build_samples, load_trajectories, parse_trajectories
from crowdtcn.synth import corridor_dataset, write_dataset

out = Path(tempfile.mkdtemp(prefix="crowdtcn-demo-"))
dataset = corridor_dataset(n_train=8, n_test=2, seed=3)
paths = write_dataset(dataset, out)
scenario = dataset.scenario
print(f"dataset written to {out}")

raw = parse_trajectories(paths["training"])
trajs = load_trajectories(paths["training"], scenario)
ped = sorted(trajs)[0]
raw_n = len(raw[ped].frames)
print(f"\npedestrian {ped}: {raw_n} raw frames at {scenario.frame_rate:g} Hz "
      f"-> {len(trajs[ped].positions)} steps at dt={scenario.dt:g} s")
speeds = np.linalg.norm(trajs[ped].velocities, axis=1)
print(f"  speed after resampling: {speeds.min():.3f}..{speeds.max():.3f} m/s")

extractor = scenario.extractor()
samples = build_samples(trajs, extractor, w=8)
f_dim = feature_dim(scenario.radar, scenario.rays)
print(f"\n{len(samples)} window samples, {f_dim} features per frame")

row = len(samples) // 2
frame = samples.windows[row, -1]
n_sec = scenario.radar.n_sectors
print(f"sample for pedestrian {samples.ped_ids[row]} at step {samples.steps[row]}:")
print(f"  own velocity {frame[0]:+.2f}, {frame[1]:+.2f} m/s")

# frame layout: velocity, sector rel velocities, sector rel positions, rays
rel_pos = frame[2 + 2 * n_sec : 2 + 4 * n_sec].reshape(n_sec, 2)
dists = np.linalg.norm(rel_pos, axis=1)
on_disc = np.isclose(dists, scenario.radar.radius)
print(f"  {int((~on_disc).sum())} of {n_sec} sectors occupied "
      f"(virtual neighbors sit on the disc at radius {scenario.radar.radius:g} m)")
nearest = int(np.argmin(dists))
print(f"  nearest neighbor: sector {nearest}, {dists[nearest]:.2f} m away")

rays = frame[2 + 4 * n_sec :].reshape(-1, 2)
ray_d = np.linalg.norm(rays, axis=1)
exits = ray_d > 0.99 * scenario.rays.exit_distance
print(f"  rays: {int(exits.sum())} of {len(rays)} report the virtual exit "
      f"distance ({scenario.rays.exit_distance:g} m), nearest wall {ray_d.min():.2f} m")
assert NeighborKind.VIRTUAL == 0  # layout sanity, kinds are not in the frame
