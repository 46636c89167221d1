"""Data-driven crowd simulation toolkit.

The pipeline turns recorded pedestrian trajectories into a learned stepping
policy and measures how realistic the resulting simulations are:

- geometry: array segment, polygon and bounded-Voronoi routines;
- scenario: the scenario schema and its validation;
- ingest: parse, clip, smooth, and resample raw trajectory recordings;
- features: social-visual descriptors per pedestrian and time step (angular
  sector neighbors plus forward ray distances to walls and exits);
- tcn: a temporal convolutional network, trained with hand-written
  backpropagation and Adam, predicting the next-step velocity;
- simulate: closed-loop rolling forecasts with boundary correction;
- evaluate: egress/travel-time errors, displacement errors, and Voronoi
  density / velocity / flow measures;
- synth: synthetic corridor, corner, and T-junction datasets;
- cli: the `crowdtcn` command wiring everything into reproducible runs.

Public names are imported from the module that defines them, which lists
them in its ``__all__`` (``from crowdtcn.tcn import train``).
"""

__version__ = "0.1.0"
