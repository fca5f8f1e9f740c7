"""The paper's claims on the (p,q) lattice, through the CLI at --points 128, and the
benchmark's two negative controls at the lattice corners.

The campaigns here are the ones that log_gamma_pq drives.  cm-psi-prime is left
out: its m-series error fails the claim at q >= 0.99 (ROADMAP item 2).
"""

import json
import math

import pytest

from pqgamma import GridSpec, PQParams, check_cm, check_log_convex, log_gamma_pq, psi_pq_deriv
from pqgamma.cli import main

LATTICE = [(p, q) for p in (4, 100, 1000) for q in (0.5, 0.9, 0.99, 0.999)]
CAMPAIGNS = {
    "cm-G": ("--a", "1,2", "--b", "1.5,2.5"),
    "lcm-f32": (),
    "lcm-h": (),
    "logconvex-gamma": (),
}


def verify(capsys, campaign, p, q):
    """(exit code, {case: record}) of one campaign at (p, q) and --points 128."""
    code = main(["verify", campaign, *CAMPAIGNS[campaign], "--p", str(p), "--q", str(q),
                 "--points", "128", "--format", "json"])
    out = capsys.readouterr().out
    return code, {r["case"]: r for r in map(json.loads, out.splitlines())}


@pytest.mark.parametrize("p, q", LATTICE)
@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_every_claim_passes(capsys, campaign, p, q):
    code, records = verify(capsys, campaign, p, q)
    assert code == 0
    if campaign == "lcm-f32":
        # the statement and the proof define different functions; the proof's is log-CM,
        # the statement's is not
        assert records["as_proved"]["verdict"] == "pass"
        assert records["as_defined"]["verdict"] == "fail"
    else:
        assert [r["verdict"] for r in records.values()] == ["pass"]


# the benchmark's negative controls, each of (p, q): -psi'_{p,q} is not CM and 1/Gamma_{p,q}
# is not log-convex
CONTROLS = {
    "cm-minus-psi-prime": lambda P: check_cm(lambda x: -psi_pq_deriv(x, P, 1),
                                             GridSpec(0.5, 6.0, 32)),
    "logconvex-reciprocal-gamma": lambda P: check_log_convex(
        lambda x: math.exp(-log_gamma_pq(x, P)), GridSpec(0.5, 8.0, 32)),
}


@pytest.mark.parametrize("p, q", [(p, q) for p in (4, 1000) for q in (0.5, 0.999)])
@pytest.mark.parametrize("control", sorted(CONTROLS))
def test_negative_controls_fail_at_the_corners(control, p, q):
    report = CONTROLS[control](PQParams(p, q))
    assert report.verdict == "fail" and report.min_slack < -0.5
