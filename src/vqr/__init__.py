"""Geometric and entropic monotones of violations of quantum realism.

A state has realism for an observable when the non-selective projective
measurement of that observable leaves it unchanged.  This package
quantifies departures from that condition with distance-based and
entropy-based monotones, verifies their axioms and identities by seeded
property testing, and regenerates the reference sweep data through the
``vqr`` command line tool.
"""

from .channels import (
    DilationSetup,
    build_dilation,
    evolve,
    has_reality,
    measure_nonselective,
    monitor,
    phi_map,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    InvalidAlpha,
    InvalidOrder,
    NonProjective,
    NotHermitian,
    NotPSD,
    NumericalFailure,
    OutOfRange,
    TraceNotOne,
    VqrError,
)
from .linalg import (
    EigenDecomposition,
    hermitian_eig,
    kron,
    matrix_function,
    partial_trace,
    schatten_norm,
)
from .metrics import (
    BURES,
    HELLINGER,
    HILBERT_SCHMIDT,
    TRACE,
    VON_NEUMANN,
    DistanceKind,
    DivergenceKind,
    bures_distance_sq,
    fidelity,
    hellinger_distance_sq,
    lp,
    lp_distance,
    relative_entropy,
    renyi,
    renyi_divergence,
    sandwiched_renyi,
    sandwiched_renyi_divergence,
    trace_distance,
    von_neumann_entropy,
)
from .realism import (
    RealismReport,
    conditional_information_entropic,
    conditional_information_geometric,
    delta_conditional_information,
    delta_conditional_information_dilated,
    irrealism,
    irrealism_decomposition,
    realism,
    realism_max,
)
from .trials import PropertyReport, check_distance_properties, expected_distance_properties
from .audit import run_audit
from .states import (
    DensityMatrix,
    Observable,
    computational_observable,
    density_from_json,
    density_to_json,
    haar_unitary,
    max_entangled,
    mu_state,
    observable_from_json,
    observable_to_json,
    random_density,
    random_observable,
    random_pure,
    spin_observable,
    validate_observable,
    validate_state,
    werner,
)
from .sweeps import SweepSpec, run_mu_sweep, run_rmax_sweep, run_werner_sweep
from .verify import run_verify

__version__ = "0.1.0"
