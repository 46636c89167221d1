"""Closed-loop simulation: seeded pedestrians advanced by the model.

Trains a quick model on corridor walkers, then replaces the recorded
motion of unseen test pedestrians with model predictions. Each pedestrian
follows its recording only while its history is shorter than the lookback
window; afterwards every step comes from the network, with features
recomputed from the simulated crowd.
"""

import tempfile
from pathlib import Path

import numpy as np

from crowdtcn.ingest import build_samples, load_trajectories, split
from crowdtcn.simulate import run
from crowdtcn.synth import corridor_dataset, write_dataset
from crowdtcn.tcn import Architecture, TrainConfig, train

out = Path(tempfile.mkdtemp(prefix="crowdtcn-demo-"))
dataset = corridor_dataset(n_train=24, n_test=5, seed=2)
paths = write_dataset(dataset, out)
scenario = dataset.scenario

trajs = load_trajectories(paths["training"], scenario)
samples = build_samples(trajs, scenario.extractor(), w=8)
arch = Architecture(
    feature_dim=samples.windows.shape[2],
    window=8,
    channels=(16, 24, 32),
    kernel_size=4,
    dilations=(1, 2, 4),
)
model, _ = train(
    split(samples, seed=0),
    TrainConfig(iterations=300, batch_size=64, learning_rate=1e-3, seed=0),
    arch,
)

seeds = load_trajectories(paths["testing"], scenario)
# the step is the scenario's dt and the lookback window the model's
result = run(scenario, seeds, model)

r = result.report
print(f"simulated {len(r['pedestrians'])} pedestrians in {r['steps_run']} steps "
      f"(cap {r['step_cap']})")
print(f"boundary corrections: {r['total_corrections']}, "
      f"step cap exceeded: {r['step_cap_exceeded']}")

print("\nper-pedestrian travel (simulated vs recorded):")
for sim in result.trajectories:
    rec = seeds[sim.id]
    sim_t = sim.n_steps * scenario.dt
    rec_t = rec.n_steps * scenario.dt
    end = sim.positions[-1]
    exited = r["pedestrians"][str(sim.id)]["exited"]
    print(f"  ped {sim.id}: {sim_t:5.1f} s vs {rec_t:5.1f} s, "
          f"exited={exited} at ({end[0]:5.2f}, {end[1]:5.2f})")

sim = result.trajectories[0]
print(f"\npedestrian {sim.id} simulated path (every 4th step):")
for k in range(0, len(sim.positions), 4):
    x, y = sim.positions[k]
    speed = np.linalg.norm(sim.velocities[min(k, len(sim.velocities) - 1)])
    print(f"  step {sim.enter_step + k:3d}: ({x:5.2f}, {y:5.2f})  {speed:.2f} m/s")
