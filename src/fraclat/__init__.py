"""fraclat: the fractional discrete Laplacian on (hZ)^d and the discrete torus.

Kernel evaluation, lattice/torus operator application, constructive
unique-continuation counterexamples, the semidiscrete extension machinery
with Carleman and boundary-bulk probes, and a regularized linear inverse
problem with stability-curve fitting.
"""

from .kernel import (
    FracParams,
    KernelTable,
    ToleranceError,
    build_kernel_table,
    kernel_1d,
    kernel_lattice_mass,
    kernel_nd,
    kernel_nd_bound,
    kernel_tail_bound_ell1,
    kernel_values,
    torus_heat_kernel,
    torus_kernel_table,
)
from .lattice import (
    LatticeFunction,
    StepProfile,
    TorusFunction,
    apply_frac_lattice,
    apply_frac_torus_pointwise,
    apply_frac_torus_spectral,
    periodize,
    transference_check,
)
from .counterexamples import (
    Certificate,
    CertificateError,
    InconsistentPotentialError,
    global_ucp_counterexample,
    potential_from_pair,
    slab_correction_amplitude,
    slab_counterexample_1d,
    slab_counterexample_2d,
    torus_ucp_counterexample,
)
from .extension import (
    BoundaryBulkResult,
    CarlemanConfig,
    ExtensionField,
    GridTooCoarseError,
    boundary_bulk_probe,
    carleman_probe,
    cs_extend_torus,
    half_ball_norms,
    make_t_grid,
    neumann_constant,
    neumann_trace,
    tangential_commutator_check,
)
from .inverse import (
    InverseSetup,
    LambdaRangeError,
    StabilityCurve,
    continuum_regime,
    forward_matrix,
    h1_gram,
    noiseless_recovery_error,
    stability_bound,
    stability_sweep,
)
from .harness import ExperimentConfig, ExperimentReport, run, self_test

__version__ = "0.1.0"
