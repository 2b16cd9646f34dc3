"""DECOR — DEpendable COverage Restoration for wireless sensor networks.

A faithful, from-scratch reproduction of *"Distributed, Reliable Restoration
Techniques using Wireless Sensor Devices"* (Drougas & Kalogeraki, IPPS 2007):
k-coverage restoration of a planar sensor field using discrepancy-theoretic
field approximation and greedy benefit-driven node placement, in centralized,
grid-cell and local-Voronoi distributed variants.

Quickstart
----------
>>> import repro
>>> planner = repro.DecorPlanner(repro.Rect.square(50.0),
...                              repro.SensorSpec(4.0, 8.0), n_points=500)
>>> result = planner.deploy(k=2, method="voronoi")
>>> result.final_covered_fraction()
1.0

Subpackages
-----------
``repro.geometry``
    Regions, neighbour search, grid partitions, Voronoi ownership.
``repro.field``
    Shared, memoised spatial model (one grid-hash neighbour index,
    adjacencies, partitions).
``repro.discrepancy``
    Halton/Hammersley/random point sets and star discrepancy.
``repro.network``
    Sensor model, deployments, coverage counts, failures, reliability.
``repro.core``
    The DECOR algorithms, baselines, redundancy and restoration.
``repro.sim``
    Discrete-event simulation substrate (radio, heartbeats, election).
``repro.analysis``
    Lifetime scheduling, intruder detection, deployment metrics.
``repro.experiments``
    The paper's evaluation (Figures 7-14) as runnable experiments.
"""

from repro._version import __version__
from repro.errors import (
    ConfigurationError,
    CoverageError,
    ExperimentError,
    GeometryError,
    PlacementError,
    ReproError,
    SimulationError,
)
from repro.geometry import Rect, GridPartition
from repro.field import FieldModel, as_field_model
from repro.discrepancy import halton, hammersley, field_points
from repro.network import (
    CoverageState,
    Deployment,
    SensorSpec,
    area_failure,
    random_failures,
    required_k,
)
from repro.core import (
    DecorPlanner,
    DeploymentResult,
    RestorationReport,
    centralized_greedy,
    grid_decor,
    random_placement,
    redundancy_fraction,
    redundant_nodes,
    restore,
    run_method,
    voronoi_decor,
)

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "GeometryError",
    "CoverageError",
    "PlacementError",
    "SimulationError",
    "ExperimentError",
    # geometry / field
    "Rect",
    "GridPartition",
    "FieldModel",
    "as_field_model",
    "halton",
    "hammersley",
    "field_points",
    # network model
    "SensorSpec",
    "Deployment",
    "CoverageState",
    "random_failures",
    "area_failure",
    "required_k",
    # algorithms
    "DecorPlanner",
    "DeploymentResult",
    "RestorationReport",
    "centralized_greedy",
    "grid_decor",
    "voronoi_decor",
    "random_placement",
    "redundant_nodes",
    "redundancy_fraction",
    "restore",
    "run_method",
]
