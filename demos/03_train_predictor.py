"""Train the velocity predictor on a synthetic corridor, from scratch.

Uses the library API directly (no CLI): build window samples, split them,
train a reduced network for a few hundred iterations, and watch the
validation loss fall. Constant-speed walkers make an easy target, so even
a small model fits them quickly.
"""

import tempfile
from pathlib import Path

from crowdtcn.ingest import build_samples, load_trajectories, split
from crowdtcn.synth import corridor_dataset, write_dataset
from crowdtcn.tcn import Architecture, TrainConfig, train

out = Path(tempfile.mkdtemp(prefix="crowdtcn-demo-"))
dataset = corridor_dataset(n_train=24, n_test=6, seed=1)
paths = write_dataset(dataset, out)
scenario = dataset.scenario

trajs = load_trajectories(paths["training"], scenario)
samples = build_samples(trajs, scenario.extractor(), w=8)
print(f"{len(trajs)} pedestrians -> {len(samples)} window samples "
      f"of shape {samples.windows.shape[1:]}")

arch = Architecture(
    feature_dim=samples.windows.shape[2],
    window=8,
    channels=(16, 24, 32),
    kernel_size=4,
    dilations=(1, 2, 4),
    dropout=0.1,
)
config = TrainConfig(iterations=300, batch_size=64, learning_rate=1e-3, eval_every=50, seed=0)
model, log = train(split(samples, seed=0), config, arch)

print("\niteration  train_loss  val_loss")
for it, tr, vl, _ in log:
    print(f"{it:9d}  {tr:10.4f}  {vl:8.4f}")

meta = model.meta
drop = 1.0 - meta["final_val_loss"] / meta["initial_val_loss"]
print(f"\nvalidation loss fell {drop:.1%} "
      f"({meta['initial_val_loss']:.4f} -> {meta['final_val_loss']:.4f})")

# predictions vs targets on a handful of samples
batch = samples[:: max(1, len(samples) // 5)][:5]
pred = model.predict(batch.windows)
print("\npredicted vs actual next velocity:")
for ped, step, t, p in zip(batch.ped_ids, batch.steps, batch.targets, pred):
    print(f"  ped {ped:3d} step {step:3d}: "
          f"({p[0]:+.3f}, {p[1]:+.3f}) vs ({t[0]:+.3f}, {t[1]:+.3f})")
