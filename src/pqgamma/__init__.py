"""(p,q)-gamma/psi function family with a numerical monotonicity verification engine."""

from .qcore import (
    DomainError,
    PQParams,
    TruncationError,
    log_q_pochhammer_inf,
    q_bracket,
)
from .gammafam import (
    log_gamma_classical,
    log_gamma_p,
    log_gamma_pq,
    log_gamma_q,
)
from .psifam import (
    euler_gamma,
    psi_classical,
    psi_p,
    psi_pq,
    psi_pq_deriv,
    psi_q,
    psi_q_deriv,
)
from .monocheck import (
    GridSpec,
    MonotonicityReport,
    check_cm,
    check_decreasing,
    check_lcm,
    check_log_convex,
    difference_table,
    forward_difference,
)
from .paperfuncs import (
    AffineInequalitySpec,
    LemmaCheck,
    RatioSpec,
    TwoPointSpec,
    f1,
    f_theorem32,
    h_beta,
    lemma_sign_check,
    log_G_pq,
    phi,
    validate_ratio_spec,
)

__version__ = "0.1.0"

__all__ = [
    "AffineInequalitySpec",
    "DomainError",
    "GridSpec",
    "LemmaCheck",
    "MonotonicityReport",
    "PQParams",
    "RatioSpec",
    "TruncationError",
    "TwoPointSpec",
    "check_cm",
    "check_decreasing",
    "check_lcm",
    "check_log_convex",
    "difference_table",
    "euler_gamma",
    "f1",
    "f_theorem32",
    "forward_difference",
    "h_beta",
    "lemma_sign_check",
    "log_G_pq",
    "log_gamma_classical",
    "log_gamma_p",
    "log_gamma_pq",
    "log_gamma_q",
    "log_q_pochhammer_inf",
    "phi",
    "psi_classical",
    "psi_p",
    "psi_pq",
    "psi_pq_deriv",
    "psi_q",
    "psi_q_deriv",
    "q_bracket",
    "validate_ratio_spec",
]
