import json

import pytest

from rmtorus import cli, core, geometry
from rmtorus.cli import main
from rmtorus.core import canonical_g
from rmtorus.presentation import _complex_json, presentation_document, relations


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_validate_outputs_exact_surd_data(capsys):
    payload = _run_json(capsys, "validate", "--g", "5", "-1", "6", "-1")
    assert payload["g"] == [5, -1, 6, -1]
    assert payload["theta"] == {"p": 3, "q": -1, "r": 6, "D": 3}
    assert payload["theta_conjugate"] == {"p": 3, "q": 1, "r": 6, "D": 3}
    assert payload["lambda_plus"] == {"p": 2, "q": -1, "r": 1, "D": 3}
    assert payload["l"] == 24
    assert payload["w"] == 2


def test_validate_accepts_trace_shorthand(capsys):
    payload = _run_json(capsys, "validate", "--trace", "4")
    assert payload["g"] == [5, -1, 6, -1]


def test_hilbert_coefficients(capsys):
    payload = _run_json(capsys, "hilbert", "--g", "5", "-1", "6", "-1", "--n", "3")
    assert payload["coefficients"] == [1, 6, 24, 90]


def test_theta_value(capsys):
    payload = _run_json(capsys, "theta", "--r", "0", "--s", "0", "--tau", "0", "1")
    assert abs(payload["value"]["re"] - 1.0864348112133082) < 1e-12
    assert payload["value"]["im"] == 0.0


def test_negative_tau_in_exponent_form_is_a_value(capsys):
    payload = _run_json(capsys, "theta", "--tau", "-9.5e-05", "1E0")
    assert payload["tau"] == {"re": -9.5e-05, "im": 1.0}
    payload = _run_json(capsys, "present", "--trace", "4", "--tau", "-1.25e-1", "2",
                        "--normalize", "rational")
    assert payload["tau"] == {"re": -0.125, "im": 2.0}


def test_present_monic_leads_are_one(capsys):
    payload = _run_json(capsys, "present", "--g", "5", "-1", "6", "-1",
                        "--tau", "0", "2", "--normalize", "monic")
    assert len(payload["relations"]) == 12
    for rel in payload["relations"]:
        lead = rel["terms"][0]["coeff"]
        assert lead == {"re": 1.0, "im": 0.0}


def test_present_rational_is_real_on_imaginary_axis(capsys):
    payload = _run_json(capsys, "present", "--g", "5", "-1", "6", "-1",
                        "--tau", "0", "2", "--normalize", "rational")
    worst = max(abs(term["coeff"]["im"])
                for rel in payload["relations"] for term in rel["terms"])
    assert worst < 1e-10


def test_present_output_is_byte_deterministic(capsys):
    args = ("present", "--g", "4", "-1", "5", "-1", "--tau", "0.3", "1.7")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


MEMBERS = (("--trace", "3"), ("--trace", "4"), ("--trace", "5"), ("--trace", "6"),
           ("--g", "7", "-2", "11", "-3"))


@pytest.mark.parametrize("member", MEMBERS, ids=" ".join)
def test_present_is_byte_identical_with_caches_cold_and_warm(capsys, member):
    odd_level = member in (("--trace", "3"), ("--trace", "5"))
    for norm in ("raw", "rational", "modular", "monic"):
        argv = ("present", *member, "--tau", "0.3", "1.6", "--normalize", norm)
        core._block_data.cache_clear()
        cli._build_parser.cache_clear()
        cold = _run(capsys, *argv)
        assert _run(capsys, *argv) == cold
        if norm == "modular" and odd_level:
            assert cold[0] == 1 and cold[2].startswith("OddLevel:")
        else:
            assert cold[0] == 0 and json.loads(cold[1])["normalization"] == norm


def test_main_builds_one_parser_and_keeps_no_parse_state(capsys):
    cli._build_parser.cache_clear()
    args = ("present", "--trace", "4", "--tau", "0", "2")
    monic = _run_json(capsys, *args, "--normalize", "monic")
    plain = _run_json(capsys, *args)
    assert cli._build_parser.cache_info().misses == 1
    assert (monic["normalization"], plain["normalization"]) == ("monic", "raw")


def test_basis_words(capsys):
    payload = _run_json(capsys, "basis", "--g", "5", "-1", "6", "-1",
                        "--tau", "0", "2", "--degree", "3")
    assert payload["count"] == 90
    words = [tuple(w) for w in payload["words"]]
    assert len(words) == 90
    assert not any(w[:2] == (5, 3) for w in words)
    assert sum(1 for w in words if w[:2] == (4, 1)) == 6


def test_average_reports_quadrature_error(capsys):
    payload = _run_json(capsys, "average", "--g", "5", "-1", "6", "-1",
                        "--tol", "1e-6")
    assert payload["quadrature_error"] < 1e-4
    assert len(payload["relations"]) == 12


def test_geom_counts_and_cap(capsys):
    payload = _run_json(capsys, "geom", "--g", "4", "-1", "5", "-1",
                        "--tau", "0", "2", "--cap", "300")
    assert payload["count"] == 252
    code, out, err = _run(capsys, "geom", "--g", "4", "-1", "5", "-1",
                          "--tau", "0", "2", "--cap", "100")
    assert code == 1 and out == ""
    assert err.startswith("CombinatorialCap:")


def test_geom_default_cap_stops_trace_5(capsys):
    code, out, err = _run(capsys, "geom", "--trace", "5", "--tau", "0", "2")
    assert (code, out) == (1, "")
    assert err == "CombinatorialCap: binomial(14, 7) = 3432 minors exceeds cap 1000\n"
    with pytest.raises(SystemExit) as exc:
        main(["geom", "--help"])
    assert exc.value.code == 0
    assert "default 1000" in capsys.readouterr().out


@pytest.mark.parametrize("trace", [3, 4])
def test_geom_output_is_json_dumps_of_the_minors(capsys, tmp_path, trace):
    target = tmp_path / "minors.json"
    for re, im in (("0", "2"), ("0.3", "1.5"), ("-0.2", "0.9")):
        tau = complex(float(re), float(im))
        minors = geometry.minor_equations(
            geometry.omega_matrix(relations(canonical_g(trace), tau)), cap=1000)
        payload = {"g": list(canonical_g(trace).g), "tau": _complex_json(tau), "cap": 1000,
                   "count": len(minors), "minors": geometry.minors_json(minors)}
        expected = json.dumps(payload, indent=2) + "\n"
        argv = ["geom", "--trace", str(trace), "--tau", re, im, "--cap", "1000"]
        code, out, err = _run(capsys, *argv)
        same = out == expected  # a bool: a diff of megabytes would not help
        assert (code, err, same) == (0, "", True)
        code, out, err = _run(capsys, *argv, "--out", str(target))
        same = target.read_text(encoding="utf-8") == expected
        assert (code, out, err, same) == (0, "", "", True)


def test_out_flag_writes_file_and_keeps_stdout_clean(capsys, tmp_path):
    target = tmp_path / "payload.json"
    code, out, err = _run(capsys, "hilbert", "--g", "4", "-1", "5", "-1",
                          "--n", "4", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["coefficients"] == [1, 5, 15, 40, 105]


def test_module_errors_become_single_diagnostic_line(capsys):
    code, out, err = _run(capsys, "validate", "--g", "1", "1", "0", "1")
    assert code == 1 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("NotHyperbolic:")


def test_present_takes_its_precision_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("RM_TORUS_PRECISION", "40")
    code, out, err = _run(capsys, "present", "--trace", "3", "--tau", "0", "2")
    assert code == 0, err
    assert out == presentation_document(relations(canonical_g(3), 2j, dps=40)) + "\n"


@pytest.mark.parametrize("command", [
    ["present", "--trace", "3", "--tau", "0", "2"],
    ["theta", "--tau", "0", "2"],
    ["geom", "--trace", "3", "--tau", "0", "2"],
    ["basis", "--trace", "3", "--tau", "0", "2", "--degree", "2"],
])
def test_malformed_precision_is_a_domain_error(capsys, monkeypatch, command):
    monkeypatch.setenv("RM_TORUS_PRECISION", "abc")
    code, out, err = _run(capsys, *command)
    assert code == 1 and out == ""
    assert err == "DomainError: RM_TORUS_PRECISION must be a positive integer, got 'abc'\n"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["present", "--g", "5", "-1", "6", "-1", "--tau", "0", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["theta", "--r", "nonsense", "--s", "0", "--tau", "0", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["present", "--trace", "3"],
    ["basis", "--trace", "3", "--degree", "2"],
    ["geom", "--trace", "3"],
])
@pytest.mark.parametrize("tau", [["0", "inf"], ["inf", "1"], ["nan", "2"], ["-inf", "2"],
                                 ["0", "-nan"], ["0", "nan"], ["0.5", "-Infinity"]])
def test_non_finite_tau_is_a_domain_error(capsys, command, tau):
    code, out, err = _run(capsys, *command, "--tau", *tau)
    assert code == 1 and out == ""
    # one line, naming the point as given rather than l * tau
    assert err == f"DomainError: point {complex(float(tau[0]), float(tau[1]))} is not finite\n"
