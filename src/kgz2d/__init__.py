"""
kgz2d: a desk-scale numerical laboratory for the two-dimensional
Klein-Gordon-Zakharov system

    -box(E) + E = -n E,      -box(n) = lap(|E|^2),

with exact spectral propagators, the divergence-form reformulation
n = lap(n_delta), the Picard solution mapping and its measured contraction,
ghost-weight energy functionals, Klainerman vector-field diagnostics,
decay-rate extraction, and the Duhamel construction of scattering data.
"""

from .grid import (
    Field,
    FieldPair,
    Grid,
    bump_window,
    h_norm,
    l2_norm,
    laplacian,
    make_grid,
    partial,
    read_field,
    write_field,
)
from .propagator import (
    InstabilityError,
    LinearOperator,
    forced_step,
    free_step,
)
from .system import (
    InitialData,
    KGZState,
    PicardNonConvergence,
    Trajectory,
    evolve,
    evolve_direct_n,
    free_flow,
    gaussian_data,
    picard_map,
    picard_solve,
)
from .vector_fields import (
    GammaWord,
    JetField,
    all_words,
    apply_gamma,
    check_commutators,
    good_derivative,
)
from .energy_diag import (
    DiagnosticsReport,
    energy,
    ghost_energy,
    hessian_decay_ratio,
    kg_extra_decay_ratio,
    ks_ratio,
    multiplier_residual,
    xnorm_distance,
    xnorm_terms,
)
from .scattering import (
    ScatterProfile,
    build_scatter_data,
    residual_series,
    source_norm_series,
)
from .harness import FitResult, RunConfig, fit_envelope, parse_config, run

__version__ = "0.1.0"
