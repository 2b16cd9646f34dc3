"""DECOR core: benefit-driven k-coverage placement algorithms (paper §3).

Algorithms (all share the greedy benefit heuristic of Eq. 1 / Algorithm 1):

* :func:`~repro.core.centralized.centralized_greedy` — global-knowledge
  baseline the paper compares against.
* :func:`~repro.core.random_placement.random_placement` — random baseline.
* :func:`~repro.core.grid_decor.grid_decor` — distributed, grid cells with
  leaders and border message exchange.
* :func:`~repro.core.voronoi_decor.voronoi_decor` — distributed, local
  Voronoi cells with knowledge horizon ``rc``.

Support:

* :class:`~repro.core.benefit.BenefitEngine` — sparse incremental
  implementation of the benefit function.
* :mod:`~repro.core.redundancy` — redundant-node identification (Figure 9).
* :mod:`~repro.core.restoration` — failure-then-repair workflows
  (Figures 11-14).
* :class:`~repro.core.planner.DecorPlanner` — high-level facade tying field
  generation, deployment, failure injection and restoration together.
"""

from repro.core.benefit import BenefitEngine
from repro.core.result import DeploymentResult, MessageStats, PlacementTrace
from repro.core.centralized import centralized_greedy
from repro.core.random_placement import random_placement
from repro.core.grid_decor import grid_decor
from repro.core.voronoi_decor import voronoi_decor
from repro.core.redundancy import redundant_nodes, redundancy_fraction
from repro.core.restoration import (
    RestorationReport,
    RestorationSession,
    restore,
)
from repro.core.planner import DecorPlanner, METHODS, run_method
from repro.core.lattice_placement import hexagonal_lattice, lattice_placement
from repro.core.mixed import (
    MixedBenefitEngine,
    MixedDeploymentResult,
    mixed_centralized_greedy,
)
from repro.core.restoration_protocol import (
    RestorationProtocolReport,
    run_restoration_protocol,
)
from repro.core.voronoi_protocol import (
    VoronoiProtocolReport,
    run_voronoi_protocol,
)
from repro.core.variable_k import (
    CoverageZone,
    VariableKResult,
    requirement_map,
    variable_k_greedy,
)

__all__ = [
    "BenefitEngine",
    "DeploymentResult",
    "MessageStats",
    "PlacementTrace",
    "centralized_greedy",
    "random_placement",
    "grid_decor",
    "voronoi_decor",
    "redundant_nodes",
    "redundancy_fraction",
    "restore",
    "RestorationReport",
    "RestorationSession",
    "DecorPlanner",
    "METHODS",
    "run_method",
    "hexagonal_lattice",
    "lattice_placement",
    "MixedBenefitEngine",
    "MixedDeploymentResult",
    "mixed_centralized_greedy",
    "RestorationProtocolReport",
    "run_restoration_protocol",
    "VoronoiProtocolReport",
    "run_voronoi_protocol",
    "CoverageZone",
    "VariableKResult",
    "requirement_map",
    "variable_k_greedy",
]
