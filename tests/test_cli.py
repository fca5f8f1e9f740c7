import csv
import io
import json
import math
import pathlib
import re

import numpy as np
import pytest

from pqgamma import cli
from pqgamma.cli import build_parser, gaps_nonincreasing, limit_rows, main
from pqgamma.gammafam import log_gamma_q
from pqgamma.paperfuncs import run_sec4_campaign, sample_affine_specs
from pqgamma.psifam import psi_q
from pqgamma.qcore import PQParams


def run(capsys, *argv):
    """Invoke the CLI in-process, returning (exit code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestEval:
    def test_gamma_pq_hand_value_csv(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "gamma_pq",
                           "--x", "1", "--p", "2", "--q", "0.5")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["output"]) == pytest.approx(6 / 7, rel=1e-13)

    def test_psi_at_one_is_minus_euler_gamma(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "psi", "--x", "1")
        assert code == 0
        value = float(parse_csv(out)[0]["output"])
        assert value == pytest.approx(-0.5772156649015329, rel=1e-12)

    def test_json_matches_csv_numerically(self, capsys):
        args = ("eval", "--fn", "gamma_pq", "--x", "1.7", "--p", "3", "--q", "0.6")
        _, out_csv, _ = run(capsys, *args)
        _, out_json, _ = run(capsys, *args, "--format", "json")
        v_csv = float(parse_csv(out_csv)[0]["output"])
        v_json = json.loads(out_json)["output"]
        assert v_csv == v_json

    def test_round_trip_serialization(self, capsys):
        _, out, _ = run(capsys, "eval", "--fn", "psi_pq",
                        "--x", "2.3", "--p", "3", "--q", "0.5")
        from pqgamma.psifam import psi_pq

        assert float(parse_csv(out)[0]["output"]) == psi_pq(2.3, PQParams(3, 0.5))

    def test_missing_argument_named(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "gamma_pq", "--x", "1", "--p", "2")
        assert code == 2
        assert "--q" in err

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "gamma_pq",
                           "--x", "-1", "--p", "2", "--q", "0.5")
        assert code == 2
        assert err

    def test_unknown_function_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "nope", "--x", "1")
        assert code == 2

    def test_gamma_q_just_above_one(self, capsys):
        # q > 1 needs the same term budget as its mirror 1/q < 1:
        # Gamma_q(x) = q^{(x-1)(x-2)/2} Gamma_{1/q}(x)
        x, q = 1.5, 1.00001
        code, out, err = run(capsys, "eval", "--fn", "gamma_q", "--x", str(x), "--q", str(q))
        assert code == 0, err
        mirror = log_gamma_q(x, 1 / q)
        expected = q ** ((x - 1) * (x - 2) / 2) * math.exp(mirror)
        assert float(parse_csv(out)[0]["output"]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("fn, value", [("gamma_q", lambda x, q: math.exp(log_gamma_q(x, q))),
                                           ("psi_q", psi_q)])
    def test_q_series_near_one_matches_library(self, capsys, fn, value):
        # 4.37e6 terms: the library call needs no term budget to agree with the CLI
        x, q = 1.5, 1 - 1e-5
        code, out, err = run(capsys, "eval", "--fn", fn, "--x", str(x), "--q", repr(q))
        assert code == 0, err
        assert float(parse_csv(out)[0]["output"]) == value(x, q)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ("--fn", "f1", "--x", "0", "--p", "3", "--q", "0.5", "--abc", "1e-300,1,1000,1,1,1"),
        ("--fn", "gamma", "--x", "200"),
        ("--fn", "gamma_pq", "--x", "300", "--p", "1000", "--q", "0.9999"),
    ])
    def test_overflow_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("--fn", "gamma_q", "--x", "1.5", "--q", "nan"),
        ("--fn", "gamma_q", "--x", "1.5", "--q", "inf"),
        ("--fn", "gamma", "--x", "nan"),
        ("--fn", "psi_pq_deriv", "--x", "nan", "--p", "3", "--q", "0.5", "--n", "1"),
    ])
    def test_non_finite_input_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("--fn", "psi", "--x", "1e-320"),
        ("--fn", "psi_pq", "--x", "1e-320", "--p", "3", "--q", "0.5"),
        ("--fn", "psi_q", "--x", "1e-320", "--q", "0.5"),
        ("--fn", "psi_p", "--x", "1e-320", "--p", "3"),
    ])
    def test_non_finite_output_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: the value overflows a float") and err.count("\n") == 1

    def test_non_finite_table_value_exits_2(self, capsys):
        code, out, _ = run(capsys, "table", "--fn", "psi", "--lo", "1e-320", "--hi", "1",
                           "--count", "3")
        assert code == 2
        assert out == ""

    def test_out_file_duplicates_stdout(self, capsys, tmp_path):
        path = tmp_path / "row.csv"
        _, out, _ = run(capsys, "eval", "--fn", "gamma", "--x", "4.5",
                        "--out", str(path))
        assert path.read_text(encoding="utf-8") == out


class TestTable:
    def test_grid_endpoints_and_count(self, capsys):
        code, out, _ = run(capsys, "table", "--fn", "gamma_pq",
                           "--p", "2", "--q", "0.5",
                           "--lo", "1", "--hi", "2", "--count", "3")
        assert code == 0
        rows = parse_csv(out)
        assert [float(r["x"]) for r in rows] == [1.0, 1.5, 2.0]
        assert float(rows[0]["value"]) == pytest.approx(6 / 7, rel=1e-13)

    def test_psi_pq_column_strictly_increasing(self, capsys):
        code, out, _ = run(capsys, "table", "--fn", "psi_pq",
                           "--p", "3", "--q", "0.5",
                           "--lo", "0.5", "--hi", "6", "--count", "40")
        assert code == 0
        vals = [float(r["value"]) for r in parse_csv(out)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run(capsys, "table", "--fn", "gamma", "--lo", "2",
                         "--hi", "1", "--count", "3")
        assert code == 2
        code, _, _ = run(capsys, "table", "--fn", "gamma", "--lo", "1",
                         "--hi", "2", "--count", "1")
        assert code == 2


class TestVerify:
    def test_logconvex_gamma_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "logconvex-gamma", "--points", "24")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["verdict"] == "pass"
        assert float(row["min_slack"]) >= -float(row["tolerance"])

    def test_cm_psi_prime_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "cm-psi-prime", "--points", "24")
        assert code == 0
        assert parse_csv(out)[0]["verdict"] == "pass"

    def test_cm_G_passes_on_valid_vectors(self, capsys):
        code, out, _ = run(capsys, "verify", "cm-G", "--a", "1,2", "--b", "1.5,2.5",
                           "--points", "24")
        assert code == 0
        assert parse_csv(out)[0]["verdict"] == "pass"

    def test_cm_G_rejects_bad_vectors_naming_index(self, capsys):
        code, _, err = run(capsys, "verify", "cm-G", "--a", "1,2", "--b", "0.5,5")
        assert code == 2
        assert "k=1" in err

    def test_lcm_f32_reports_both_variants(self, capsys):
        code, out, _ = run(capsys, "verify", "lcm-f32", "--points", "24")
        rows = parse_csv(out)
        assert {r["case"] for r in rows} == {"as_defined", "as_proved"}
        assert code == 0
        by_case = {r["case"]: r["verdict"] for r in rows}
        assert by_case["as_proved"] == "pass"

    def test_lcm_h_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "lcm-h", "--points", "24")
        assert code == 0
        assert parse_csv(out)[0]["verdict"] == "pass"

    def test_ineq_lemma21_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "ineq-lemma21", "--points", "32")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["verdict"] == "pass"
        assert float(row["min_slack"]) >= -1e-14

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_ineq_lemma21_rejects_empty_grid(self, capsys, points):
        code, out, err = run(capsys, "verify", "ineq-lemma21", "--points", points)
        assert code == 2
        assert out == ""
        assert "points" in err

    @pytest.mark.parametrize("bound", ["--hi=inf", "--lo=-inf", "--hi=nan"])
    def test_ineq_lemma21_rejects_non_finite_bounds(self, capsys, bound):
        code, out, err = run(capsys, "verify", "ineq-lemma21", "--points", "8", bound)
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_ineq_lemma21_draws_from_lo_hi(self, capsys):
        code, out, _ = run(capsys, "verify", "ineq-lemma21", "--points", "10",
                           "--lo", "1", "--hi", "3")
        assert code == 0
        row = parse_csv(out)[0]
        assert (row["lo"], row["hi"]) == ("1.0", "3.0")
        assert 1.0 <= float(row["w0"]) <= 3.0 and 1.0 <= float(row["w1"]) <= 3.0

    def test_ineq_sec4_rejects_nonpositive_samples(self, capsys):
        code, out, err = run(capsys, "verify", "ineq-sec4", "--samples", "-5")
        assert code == 2
        assert out == ""
        assert "samples" in err

    def test_ineq_sec4_passes_with_enough_qualified(self, capsys):
        code, out, _ = run(capsys, "verify", "ineq-sec4", "--samples", "200")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["verdict"] == "pass"
        assert int(row["qualified"]) + int(row["skipped"]) == 200

    def test_ineq_sec4_min_slack_is_positive(self, capsys):
        code, out, _ = run(capsys, "verify", "ineq-sec4", "--samples", "200")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["verdict"] == "pass"
        assert float(row["min_slack"]) > 0.0

    @pytest.mark.parametrize("campaign, extra, base", [
        ("ineq-sec4", ("--samples", "20"), 1e-10),
        ("ineq-lemma21", ("--points", "4"), 1e-14),
    ])
    def test_fixed_tolerances_scale_with_tol_scale(self, capsys, campaign, extra, base):
        _, out, _ = run(capsys, "verify", campaign, *extra)
        assert float(parse_csv(out)[0]["tolerance"]) == base
        _, out, _ = run(capsys, "verify", campaign, *extra, "--tol-scale", "1e6")
        row = parse_csv(out)[0]
        assert float(row["tolerance"]) == base * (1e6 / 1e3)
        assert float(row["tol_scale"]) == 1e6

    def test_seeded_runs_are_byte_identical(self, capsys):
        args = ("verify", "logconvex-gamma", "--points", "16", "--seed", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_unknown_campaign_exits_2(self, capsys):
        assert main(["verify", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_cm_G_needs_b(self, capsys):
        code, out, err = run(capsys, "verify", "cm-G", "--a", "1,2", "--points", "4")
        assert code == 2
        assert out == ""
        assert "--b" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "ineq-lemma21", "--p", "9", "--points", "4"),
        ("verify", "cm-psi-prime", "--poi", "4"),
        ("limits", "q-to-p", "--x", "2", "--lad", "0.9,0.99"),
        ("eval", "--fn", "gamma", "--x", "1", "--form", "json"),
    ])
    def test_abbreviated_flags_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith("error: ")


class TestLimits:
    def test_p_gamma_corner(self, capsys):
        code, out, _ = run(capsys, "limits", "p-gamma", "--x", "0.5",
                           "--ladder", "100,1000,10000")
        assert code == 0
        gaps = [float(r["gap"]) for r in parse_csv(out)]
        assert gaps == sorted(gaps, reverse=True)
        # |ln Gamma_p(1/2) - ln sqrt(pi)| keeps shrinking like 1/p
        assert gaps[-1] < 1e-3

    def test_q_to_p_corner(self, capsys):
        code, out, _ = run(capsys, "limits", "q-to-p", "--x", "2", "--p", "10",
                           "--ladder", "0.9,0.99,0.999")
        assert code == 0
        gaps = [float(r["gap"]) for r in parse_csv(out)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_psi_diagram_final_entry_near_minus_gamma(self, capsys):
        code, out, _ = run(capsys, "limits", "psi-diagram", "--x", "1")
        assert code == 0
        rows = [r for r in parse_csv(out) if r["edge"] == "psi_p->psi"]
        assert float(rows[-1]["gap"]) < 1e-4

    def test_bad_x_exits_2(self, capsys):
        code, _, _ = run(capsys, "limits", "p-gamma", "--x", "-1")
        assert code == 2

    @pytest.mark.parametrize("corner", ["p-gamma", "q-gamma", "p-to-q", "q-to-p", "psi-diagram"])
    def test_nan_x_exits_2(self, capsys, corner):
        code, out, err = run(capsys, "limits", corner, "--x", "nan")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_x_is_required(self, capsys):
        code, out, err = run(capsys, "limits", "p-gamma")
        assert code == 2
        assert "--x" in err

    def test_gaps_nonincreasing_helper(self):
        rows = [("e", 1, 1.0), ("e", 2, 0.5), ("e", 3, 0.5 + 1e-12)]
        assert gaps_nonincreasing(rows)
        assert not gaps_nonincreasing([("e", 1, 1.0), ("e", 2, 2.0)])


REPORT_COLUMNS = ("campaign,case,verdict,min_slack,w0,w1,w2,tolerance,evaluations,"
                  "seed,lo,hi,points,max_order,tol_scale")

EVAL_HEADERS = {
    "gamma_pq": (("--p", "3", "--q", "0.5"), "function,x,p,q,output,provenance"),
    "gamma_p": (("--p", "3"), "function,x,p,output,provenance"),
    "gamma_q": (("--q", "0.5"), "function,x,q,output,provenance"),
    "gamma": ((), "function,x,output,provenance"),
    "psi_pq": (("--p", "3", "--q", "0.5"), "function,x,p,q,output,provenance"),
    "psi_pq_deriv": (("--p", "3", "--q", "0.5", "--n", "2"),
                     "function,x,p,q,n,output,provenance"),
    "psi_p": (("--p", "3"), "function,x,p,output,provenance"),
    "psi_q": (("--q", "0.5"), "function,x,q,output,provenance"),
    "psi": ((), "function,x,output,provenance"),
    "G_pq": (("--p", "3", "--q", "0.5", "--a", "1,2", "--b", "1.5,2.5"),
             "function,x,p,q,a,b,output,provenance"),
    "f32": (("--p", "3", "--q", "0.5"), "function,x,p,q,variant,output,provenance"),
    "h_beta": (("--p", "3", "--q", "0.5", "--s", "2", "--t", "1", "--beta", "0.5"),
               "function,x,p,q,s,t,beta,output,provenance"),
    "f1": (("--p", "3", "--q", "0.5", "--abc", "1,1,1,2,1,1"),
           "function,x,p,q,abc,output,provenance"),
}

CAMPAIGN_HEADERS = {
    "logconvex-gamma": (("--points", "4"), REPORT_COLUMNS + ",p,q"),
    "cm-psi-prime": (("--points", "4"), REPORT_COLUMNS + ",p,q"),
    "cm-G": (("--points", "4", "--a", "1,2", "--b", "1.5,2.5"), REPORT_COLUMNS + ",p,q,a,b"),
    "lcm-f32": (("--points", "4"), REPORT_COLUMNS + ",p,q"),
    "lcm-h": (("--points", "4"), REPORT_COLUMNS + ",p,q,s,t,beta"),
    "ineq-lemma21": (("--points", "4"), REPORT_COLUMNS),
    "ineq-sec4": (("--samples", "20"), REPORT_COLUMNS + ",samples,qualified,skipped,p,q"),
}


class TestRecordLayout:
    """Column order of every record, fixed independently of how dispatch is written."""

    @pytest.mark.parametrize("fn", sorted(EVAL_HEADERS))
    def test_eval_csv_header(self, capsys, fn):
        extra, header = EVAL_HEADERS[fn]
        code, out, err = run(capsys, "eval", "--fn", fn, "--x", "0.5", *extra)
        assert code == 0, err
        assert out.splitlines()[0] == header

    @pytest.mark.parametrize("campaign", sorted(CAMPAIGN_HEADERS))
    def test_verify_csv_header(self, capsys, campaign):
        extra, header = CAMPAIGN_HEADERS[campaign]
        code, out, err = run(capsys, "verify", campaign, *extra)
        assert code in (0, 1), err
        assert out.splitlines()[0] == header

    def test_json_key_order(self, capsys):
        _, out, _ = run(capsys, "eval", "--fn", "h_beta", "--x", "0.5",
                        *EVAL_HEADERS["h_beta"][0], "--format", "json")
        record = json.loads(out)
        assert list(record) == ["function", "inputs", "output", "provenance"]
        assert list(record["inputs"]) == ["x", "p", "q", "s", "t", "beta"]
        _, out, _ = run(capsys, "verify", "lcm-h", "--points", "4", "--format", "json")
        assert [list(json.loads(line)) for line in out.splitlines()] == [
            (REPORT_COLUMNS + ",p,q,s,t,beta").split(",")]


class TestSec4Sampling:
    def test_sampler_is_seeded(self):
        assert sample_affine_specs(5, 3) == sample_affine_specs(5, 3)
        assert sample_affine_specs(5, 3) != sample_affine_specs(5, 4)

    def test_campaign_counts_are_consistent(self):
        result = run_sec4_campaign(PQParams(3, 0.5), samples=100, seed=42)
        assert result["qualified"] + result["skipped"] == 100
        assert result["verdict"] == "pass"
        assert result["min_slack"] >= -result["tolerance"]


def test_limit_rows_rejects_unknown_corner():
    from pqgamma.cli import UsageError

    with pytest.raises(UsageError):
        limit_rows("sideways", 1.0)


# Flags each entry reads besides --format and --out, as the README's CLI table lists them.
VERIFY_READS = {
    "logconvex-gamma": "p q lo hi points seed tol-scale",
    "cm-psi-prime": "p q lo hi points tol-scale",
    "lcm-f32": "p q lo hi points tol-scale",
    "cm-G": "p q lo hi points tol-scale a b",
    "lcm-h": "p q lo hi points tol-scale s t beta",
    "ineq-lemma21": "lo hi points seed tol-scale",
    "ineq-sec4": "p q samples seed tol-scale",
}
LIMITS_READS = {
    "p-gamma": "x ladder",
    "q-gamma": "x ladder",
    "p-to-q": "x ladder q",
    "q-to-p": "x ladder p",
    "psi-diagram": "x ladder p q",
}
# eval reads the flags its record echoes; neither eval nor table takes --seed or --tol-scale
EVAL_READS = {fn: " ".join(header.split(",")[1:-2]) for fn, (_, header) in EVAL_HEADERS.items()}
FLAG_VALUES = {
    "x": "1", "p": "5", "q": "0.5", "n": "1", "a": "1,2", "b": "1.5,2.5", "s": "2", "t": "1",
    "beta": "0.5", "abc": "1,1,1,2,1,1", "variant": "as_proved", "lo": "0.3", "hi": "0.9",
    "points": "5", "samples": "20", "seed": "7", "tol-scale": "10", "ladder": "10,100",
}
# the smallest valid invocation of each entry
BASE_ARGV = {
    "eval": lambda fn: ("eval", "--fn", fn, "--x", "0.5", *EVAL_HEADERS[fn][0]),
    "verify": lambda c: ("verify", c, *(("--a", "1,2", "--b", "1.5,2.5") if c == "cm-G" else ())),
    "limits": lambda corner: ("limits", corner, "--x", "1"),
}


def _unread_pairs():
    pairs = []
    for command, reads in (("eval", EVAL_READS), ("verify", VERIFY_READS),
                           ("limits", LIMITS_READS)):
        offered = set(" ".join(reads.values()).split()) | {"seed", "tol-scale"}
        for entry, flags in reads.items():
            pairs += [(command, entry, f) for f in sorted(offered - set(flags.split()))]
    return pairs + [("table", "gamma", f) for f in ("x", "seed", "tol-scale", "p")]


class TestUnreadFlags:
    """No command, campaign, corner or function takes a flag that it does not read."""

    @pytest.mark.parametrize("command, entry, flag", _unread_pairs())
    def test_unread_flag_exits_2(self, capsys, command, entry, flag):
        if command == "table":
            argv = ("table", "--fn", entry, "--lo", "1", "--hi", "2", "--count", "3")
        else:
            argv = BASE_ARGV[command](entry)
        code, out, err = run(capsys, *argv, f"--{flag}", FLAG_VALUES[flag])
        assert code == 2
        assert out == ""
        assert f"--{flag} " in err.splitlines()[-1] + " "

    @pytest.mark.parametrize("command, reads", [("verify", VERIFY_READS),
                                                ("limits", LIMITS_READS)])
    def test_every_read_flag_parses(self, command, reads):
        # the negative test above only means something if each listed flag is accepted
        for entry, flags in reads.items():
            argv = list(BASE_ARGV[command](entry))
            for f in flags.split():
                if f"--{f}" not in argv:
                    argv += [f"--{f}", FLAG_VALUES[f]]
            args = build_parser().parse_args(argv)
            assert args.handler is not None

    def test_eval_names_the_unread_flag(self, capsys):
        code, out, err = run(capsys, "eval", "--fn", "gamma", "--x", "1", "--p", "5")
        assert code == 2
        assert out == ""
        assert err == "error: function gamma does not take --p\n"


class TestPLadder:
    """A p ladder takes positive integers: an integral real reads as that integer."""

    @pytest.mark.parametrize("ladder", ["10.5,20.7", "nan", "inf", "0"])
    @pytest.mark.parametrize("corner", ["p-gamma", "p-to-q", "psi-diagram"])
    def test_non_integer_p_exits_2(self, capsys, corner, ladder):
        code, out, err = run(capsys, "limits", corner, "--x", "1", "--ladder", ladder)
        assert code == 2
        assert out == ""
        assert "--ladder" in err and err.count("\n") == 1

    def test_integral_reals_print_as_integers(self, capsys):
        code, out, _ = run(capsys, "limits", "p-gamma", "--x", "1", "--ladder", "100,1000.0")
        assert code == 0
        assert [r["parameter"] for r in parse_csv(out)] == ["100", "1000"]


@pytest.mark.parametrize("tol_scale", ["inf", "nan", "-1"])
@pytest.mark.parametrize("campaign", sorted(VERIFY_READS))
def test_tol_scale_must_be_finite_and_nonnegative(capsys, campaign, tol_scale):
    code, out, err = run(capsys, *BASE_ARGV["verify"](campaign), "--tol-scale", tol_scale)
    assert code == 2
    assert out == ""
    assert "tol_scale" in err


def test_table_builds_its_function_once(capsys, monkeypatch):
    built = []
    ratio_spec = cli.RatioSpec
    monkeypatch.setattr(cli, "RatioSpec", lambda *args: built.append(args) or ratio_spec(*args))
    code, out, err = run(capsys, "table", "--fn", "G_pq", "--p", "3", "--q", "0.5",
                         "--a", "1,2", "--b", "1.5,2.5", "--lo", "0.5", "--hi", "3",
                         "--count", "40")
    assert code == 0, err
    assert len(parse_csv(out)) == 40
    assert len(built) == 1


@pytest.mark.parametrize("argv, name", [
    (BASE_ARGV["verify"]("logconvex-gamma"), "check_log_convex"),
    (BASE_ARGV["verify"]("cm-psi-prime"), "check_cm"),
    (BASE_ARGV["verify"]("cm-G"), "check_cm"),
    (BASE_ARGV["verify"]("lcm-f32"), "check_lcm"),
    (BASE_ARGV["verify"]("lcm-h"), "check_lcm"),
    (BASE_ARGV["verify"]("logconvex-gamma"), "log_gamma_pq"),
    (BASE_ARGV["limits"]("q-to-p") + ("--ladder", "0.9"), "log_gamma_pq"),
    (BASE_ARGV["limits"]("psi-diagram"), "psi_classical"),
])
def test_tables_call_the_module_globals_when_they_run(capsys, monkeypatch, argv, name):
    # a campaign or corner row that held the function object from import time, or from the
    # cached parser, would bypass a later rebinding such as the benchmark tracer's spans
    build_parser()
    calls = []
    original = getattr(cli, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    points = ("--points", "2") if argv[0] == "verify" else ()
    code, _, err = run(capsys, *argv, *points)
    assert code in (0, 1), err
    assert calls


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("campaign, name", [
    ("logconvex-gamma", "log_gamma_pq"),
    ("cm-psi-prime", "psi_pq_deriv"),
    ("cm-G", "log_G_pq"),
    ("lcm-f32", "f_theorem32"),
    ("lcm-h", "h_beta"),
])
def test_a_non_finite_campaign_value_exits_2(capsys, monkeypatch, campaign, name, value):
    monkeypatch.setattr(cli, name, lambda x, *rest: np.full(np.shape(x), value)[()])
    code, out, err = run(capsys, *BASE_ARGV["verify"](campaign), "--points", "4")
    assert code == 2
    assert out == ""
    assert f") = {value}" in err


def _readme_defaults():
    """(argv, dest, value) for every scalar default in the README's CLI flag table."""
    with open(pathlib.Path(__file__).parents[1] / "README.md", encoding="utf-8") as fh:
        lines = [line for line in fh if line.startswith(("| `verify ", "| `limits "))]
    assert lines
    out = []
    for line in lines:
        entries, flags = line.split("|")[1:3]
        for command, entry in re.findall(r"`(verify|limits) ([\w-]+)`", entries):
            argv = BASE_ARGV[command](entry)
            for flag, value in re.findall(r"`--([\w-]+)` \(([-\d.]+)\)", flags):
                out.append(pytest.param(argv, flag.replace("-", "_"), float(value),
                                        id=f"{entry}--{flag}"))
    return out


@pytest.mark.parametrize("argv, dest, value", _readme_defaults())
def test_readme_defaults_match_the_parser(argv, dest, value):
    assert getattr(build_parser().parse_args(list(argv)), dest) == value
