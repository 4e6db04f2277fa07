"""Numerical certification of local minimax points of constrained min-max
problems: value-function derivatives, generalized Jacobians of the inner
solution map, and first/second-order optimality condition checks.
"""

from .certify import (
    VERDICT_CERTIFIED,
    VERDICT_INCONCLUSIVE,
    VERDICT_NECESSARY,
    VERDICT_REFUTED,
    VERSION,
    CertificateReport,
    certify,
    classify_path,
)
from .config import CheckConfig
from .fixtures import load_fixture
from .lower import (
    ActivePartition,
    KktSolution,
    check_assumption_a,
    check_jacobian_uniqueness,
    classify_partition,
    kkt_residual_lower,
    recover_multipliers,
    solve_lower,
)
from .nonsmooth import (
    assemble_a_matrix,
    assemble_h_matrix,
    enumerate_b_selectors,
    kkt_map_directional,
    phi_generalized_gradients,
)
from .oracle import GridSpec, fd_derivatives, grid_local_maximize, verify_minimax_definition
from .problem import (
    CandidatePoint,
    DerivativeBundle,
    ProblemSpec,
    eval_bundle,
    parse_problem,
    problem_digest,
    serialize_problem,
)
from .upper import (
    check_mfcq,
    first_order_nonsmooth_necessary,
    second_order_necessary,
    second_order_sufficient,
    upper_kkt_and_polytope,
)
from .value_function import value_derivatives

__version__ = VERSION
