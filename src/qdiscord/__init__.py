"""Quantum discord of two-qubit states via channel decomposition.

The package splits an arbitrary two-qubit density matrix into a qubit
channel acting on one arm of an entangled pair, reduces the discord
optimization to two measurement angles, solves the resulting stationary
equations, and cross-validates everything against a brute-force grid
oracle.
"""

from .qmat import (
    I2,
    I4,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityState,
    binary_entropy,
    check_density_matrix,
    density_state,
    herm_eig,
    partial_trace_a,
    partial_trace_b,
    tensor,
    von_neumann_entropy,
)
from .choi import (
    CJDecomposition,
    KrausSet,
    SingularMarginalError,
    apply_channel,
    channel_fidelity,
    decompose,
    devectorize,
    reconstruct,
    sandwich_identity_check,
    vectorize,
)
from .bloch import (
    AffineChannel,
    DegenerateOutcomeError,
    affine_from_kraus,
    conditional_probabilities,
    conditional_purities,
    from_bloch,
    normalize_angles,
    to_bloch,
)
from .correlations import (
    DiscordReport,
    StationaryPoint,
    conditional_entropy_channel,
    conditional_entropy_direct,
    discord,
    find_stationary_points,
    grad_objective,
    grid_oracle,
    mutual_information,
    universal_candidates,
)
from .xstate import (
    G_func,
    H_func,
    NotApplicableError,
    XStateParams,
    analytic_discord_x,
    f_phi,
    is_x_state,
    maximize_f,
    universal_sufficient,
    x_params,
)
from .states import (
    bell_diagonal,
    lu_state,
    parse,
    random_state,
    serialize,
    werner,
    x_state,
)

__version__ = "0.1.0"
