"""Every public function rejects a NaN or infinite argument with DomainError."""

import math

import numpy as np
import pytest

import pqgamma as pg
from pqgamma import AffineInequalitySpec, DomainError, PQParams, RatioSpec, TwoPointSpec

P = PQParams(3, 0.5)
AFFINE = AffineInequalitySpec(1, 1, 1, 2, 1, 1)

# name -> one-argument call that puts the argument where x (or q) goes
CALLS = {
    "log_gamma_pq": lambda x: pg.log_gamma_pq(x, P),
    "log_gamma_pq[array]": lambda x: pg.log_gamma_pq(np.array([1.0, x]), P),
    "log_gamma_p": lambda x: pg.log_gamma_p(x, 5),
    "log_gamma_q": lambda x: pg.log_gamma_q(x, 0.5),
    "log_gamma_q[q>1]": lambda x: pg.log_gamma_q(x, 2.0),
    "log_gamma_q[q]": lambda q: pg.log_gamma_q(1.5, q),
    "log_gamma_classical": pg.log_gamma_classical,
    "psi_pq": lambda x: pg.psi_pq(x, P),
    "psi_pq[array]": lambda x: pg.psi_pq(np.array([x, 1.0]), P),
    "psi_pq_deriv": lambda x: pg.psi_pq_deriv(x, P, 1),
    "psi_p": lambda x: pg.psi_p(x, 5),
    "psi_q": lambda x: pg.psi_q(x, 0.5),
    "psi_q[q]": lambda q: pg.psi_q(1.5, q),
    "psi_q_deriv": lambda x: pg.psi_q_deriv(x, 0.5, 2),
    "psi_q_deriv[q]": lambda q: pg.psi_q_deriv(1.5, q, 2),
    "psi_classical": pg.psi_classical,
    "log_G_pq": lambda x: pg.log_G_pq(x, RatioSpec((1, 2), (1.5, 2.5)), P),
    "f_theorem32": lambda x: pg.f_theorem32(x, P),
    "h_beta": lambda x: pg.h_beta(x, TwoPointSpec(2, 1, 0.5), P),
    "phi": lambda u: pg.phi(u, TwoPointSpec(2, 1, 0.5), P),
    "f1": lambda x: pg.f1(x, AFFINE, P),
    "lemma_sign_check": lambda x: pg.lemma_sign_check(AFFINE, P, x, "L41"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_non_finite_argument_raises(name, value):
    with pytest.raises(DomainError):
        CALLS[name](value)
