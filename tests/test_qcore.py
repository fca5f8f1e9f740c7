import math

import pytest
from hypothesis import given, strategies as st

from pqgamma.qcore import (
    DomainError,
    PQParams,
    log_q_pochhammer_inf,
    q_bracket,
)


class TestQBracket:
    def test_bracket_of_one_is_one(self):
        assert q_bracket(1, 0.3) == 1.0

    def test_hand_value(self):
        assert q_bracket(3, 0.5) == pytest.approx(1.75, rel=1e-15)

    def test_limit_q_to_one(self):
        assert q_bracket(2, 1 - 1e-12) == pytest.approx(2.0, rel=1e-9)

    def test_rejects_bad_q(self):
        for q in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(DomainError):
                q_bracket(2, q)

    def test_rejects_negative_n(self):
        with pytest.raises(DomainError):
            q_bracket(-1, 0.5)

    @given(st.floats(0.0, 20.0), st.floats(0.01, 0.99))
    def test_defining_identity(self, n, q):
        # [n]_q (1-q) + q^n = 1 up to a couple of ulp
        assert q_bracket(n, q) * (1 - q) + q**n == pytest.approx(1.0, abs=5e-16)

    def test_strictly_increasing_in_n(self):
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            ns = [0.1 + 0.4 * i for i in range(50)]
            vals = [q_bracket(n, q) for n in ns]
            for n0, a, b in zip(ns, vals, vals[1:]):
                # increments shrink like q^n; strictness is only resolvable
                # while they sit above double-precision noise
                if q ** (n0 + 0.4) > 1e-13:
                    assert a < b
                else:
                    assert a <= b


class TestLogQPochhammer:
    def test_a_zero_empty_product(self):
        assert log_q_pochhammer_inf(0.0, 0.5) == 0.0

    def test_frozen_value(self):
        # brute-force product to j=200 gives (0.5;0.5)_inf = 0.28878809508660242
        got = log_q_pochhammer_inf(0.5, 0.5)
        assert got == pytest.approx(math.log(0.28878809508660242), rel=1e-13)

    @pytest.mark.parametrize("a,q", [(0.5, 0.5), (0.9, 0.9), (0.3, 0.8), (0.9, 0.3)])
    def test_matches_direct_product(self, a, q):
        direct = math.fsum(math.log1p(-a * q**j) for j in range(10**4))
        assert log_q_pochhammer_inf(a, q) == pytest.approx(direct, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            log_q_pochhammer_inf(1.0, 0.5)
        with pytest.raises(DomainError):
            log_q_pochhammer_inf(0.5, 1.0)


class TestParamTypes:
    def test_pqparams_validation(self):
        PQParams(1, 0.5)
        for p, q in ((0, 0.5), (-3, 0.5), (2, 0.0), (2, 1.0), (2, 1.3)):
            with pytest.raises(DomainError):
                PQParams(p, q)

    def test_pqparams_rejects_float_p(self):
        with pytest.raises(DomainError):
            PQParams(2.5, 0.5)
