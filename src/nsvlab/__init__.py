"""Stochastic kinetic-action laboratory for incompressible flow on the 2-torus.

Importing the package loads every module a run uses.  numpy loads
numpy.random and numpy.fft on first attribute access; the modules that use
them import them by name (from numpy.random import ..., from numpy.fft
import ...), so that cost falls at import and not inside the first run.
tests/test_cold_start.py checks this in a fresh interpreter.
"""

from .estimates import EstimateWithError, ks_critical_value, ks_uniform_statistic
from .fields import (
    FourierScalarField,
    FourierVectorField,
    SpectralBasis,
    SpectralError,
    deformation_inner,
    deformation_laplacian,
    hodge_laplacian,
    leray_project,
    random_divergence_free,
    vector_laplacian,
)
from .flows import (
    TimeDependentVelocity,
    advection_field,
    hessian_bound,
    ns_step,
    pressure_from_velocity,
    solve_navier_stokes,
    steady_flow,
    taylor_green,
)
from .sde import (
    FORWARD,
    REVERSED,
    PathEnsemble,
    SdeParams,
    brownian_bridge,
    drift_orthogonality,
    load_ensemble,
    measure_density,
    path_rng,
    save_ensemble,
    simulate_ito,
    simulate_stratonovich_basis,
)
from .action import (
    OccupationSet,
    TestPair,
    action,
    action_prefixes,
    default_test_bank,
    dpm_residual,
    first_variation_direct,
    occupation_measure,
    weak_ns_residual,
)
from .variation import (
    PinnedPerturbation,
    first_variation_fd,
    flow_points,
    mean_acceleration_check,
    minimality_check,
    pinned_family,
    sample_pinned_perturbation,
)

__version__ = "0.1.0"
