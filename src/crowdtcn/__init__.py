"""Data-driven crowd simulation toolkit.

The pipeline turns recorded pedestrian trajectories into a learned stepping
policy and measures how realistic the resulting simulations are:

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
"""

from .evaluate import (
    MeasurementSeries,
    MetricTable,
    TrajectoryPair,
    ete_pete,
    fde,
    fundamental_diagram,
    nearest_rank_percentile,
    profiles,
    tde,
    tte_ptte,
    voronoi_measures,
)
from .features import (
    FeatureExtractor,
    RadarConfig,
    RayScanConfig,
    StaticVelocityMode,
    feature_dim,
    heading,
)
from .geometry import bounded_voronoi, point_in_polygon, polygon_area
from .ingest import (
    DatasetSplit,
    RawTrack,
    Samples,
    Trajectory,
    build_samples,
    load_step_trajectories,
    load_trajectories,
    parse_trajectories,
    resample,
    smooth,
    split,
    write_trajectory_file,
)
from .scenario import BadConfig, Scenario, SmoothingConfig, load_scenario
from .simulate import SimConfig, SimResult, SimWorld, run
from .synth import (
    GEOMETRIES,
    SyntheticDataset,
    corner_dataset,
    corner_scenario,
    corridor_dataset,
    corridor_scenario,
    t_junction_dataset,
    t_junction_scenario,
    write_dataset,
)
from .tcn import (
    Architecture,
    Model,
    NormStats,
    TrainConfig,
    dilated_causal_conv,
    load_model,
    save_model,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # geometry
    "bounded_voronoi",
    "point_in_polygon",
    "polygon_area",
    # scenario
    "BadConfig",
    "Scenario",
    "SmoothingConfig",
    "load_scenario",
    # ingest
    "DatasetSplit",
    "RawTrack",
    "Samples",
    "Trajectory",
    "build_samples",
    "load_step_trajectories",
    "load_trajectories",
    "parse_trajectories",
    "resample",
    "smooth",
    "split",
    "write_trajectory_file",
    # features
    "FeatureExtractor",
    "RadarConfig",
    "RayScanConfig",
    "StaticVelocityMode",
    "feature_dim",
    "heading",
    # tcn
    "Architecture",
    "Model",
    "NormStats",
    "TrainConfig",
    "dilated_causal_conv",
    "load_model",
    "save_model",
    "train",
    # simulate
    "SimConfig",
    "SimResult",
    "SimWorld",
    "run",
    # evaluate
    "MeasurementSeries",
    "MetricTable",
    "TrajectoryPair",
    "ete_pete",
    "fde",
    "fundamental_diagram",
    "nearest_rank_percentile",
    "profiles",
    "tde",
    "tte_ptte",
    "voronoi_measures",
    # synth
    "GEOMETRIES",
    "SyntheticDataset",
    "corner_dataset",
    "corner_scenario",
    "corridor_dataset",
    "corridor_scenario",
    "t_junction_dataset",
    "t_junction_scenario",
    "write_dataset",
]
