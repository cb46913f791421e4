"""Critically coupled Ginzburg-Landau vortices on conformal disks with Neumann data.

The package solves the scalar vortex field equation on a rotationally
symmetric disk for interior and boundary vortices, verifies the flux and
energy quantization laws and the area existence bound, and computes the
moduli-space metric data of a single vortex, including the boundary term
that makes the metric a nonlocal object.
"""

from .geometry import (
    BradlowViolation,
    ConformalDisk,
    PolarGrid,
    ScalarField,
    VortexConfiguration,
    bradlow_margin,
    build_grid,
    check_bradlow,
)
from .moduli import (
    LinearizedProfile,
    MetricReport,
    metric_coefficient,
    solve_linearized,
)
from .observables import (
    ObservableSet,
    compute_observables,
    magnetic_field,
)
from .operators import NeumannLaplacian, assemble_neumann_laplacian
from .shooting import RadialProfile, shoot
from .singular import (
    SingularPart,
    boundary_neumann_green,
    build_singular_part,
    neumann_green,
)
from .solver2d import SolveReport, solve_taubes_2d
from .verification import CheckResult, run_acceptance

__version__ = "0.1.0"

__all__ = [
    "BradlowViolation",
    "CheckResult",
    "ConformalDisk",
    "LinearizedProfile",
    "MetricReport",
    "NeumannLaplacian",
    "ObservableSet",
    "PolarGrid",
    "RadialProfile",
    "ScalarField",
    "SingularPart",
    "SolveReport",
    "VortexConfiguration",
    "assemble_neumann_laplacian",
    "boundary_neumann_green",
    "bradlow_margin",
    "build_grid",
    "build_singular_part",
    "check_bradlow",
    "compute_observables",
    "magnetic_field",
    "metric_coefficient",
    "neumann_green",
    "run_acceptance",
    "shoot",
    "solve_linearized",
    "solve_taubes_2d",
    "__version__",
]
