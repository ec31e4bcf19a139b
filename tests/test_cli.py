"""Exit codes, CSV output, and report determinism of the console entry point."""

import json
import time
import warnings

import pytest

from ratbound import (
    CircleGrid,
    GeneratorSpec,
    TheoremId,
    ZeroLocation,
    certify,
    generate,
    instance_to_dict,
    make_extremal,
    margin_curve,
)
from ratbound.cli import main


def write_instance(path, r, k=None):
    path.write_text(json.dumps(instance_to_dict(r, k)), encoding="utf-8")
    return str(path)


@pytest.fixture()
def extremal_file(tmp_path):
    r, _ = make_extremal(TheoremId.MAIN_UPPER, 3.0, 1.0, 2, 2)
    return write_instance(tmp_path / "extremal.json", r, 1.0)


# ---------------------------------------------------------------------------
# exit codes


def test_certify_extremal_exits_zero(extremal_file, capsys):
    assert main(["certify", extremal_file, "main-upper"]) == 0
    out = capsys.readouterr().out
    assert "violations   0" in out
    assert "theorem      main-upper" in out


def test_unknown_theorem_exits_one(extremal_file, capsys):
    assert main(["certify", extremal_file, "no-such-bound"]) == 1
    assert "unknown theorem" in capsys.readouterr().err


def test_missing_file_exits_one(tmp_path, capsys):
    assert main(["certify", str(tmp_path / "nope.json"), "main-upper"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["certify", str(bad), "main-upper"]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_invalid_instance_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"poles": [[0.5, 0.0]], "zeros": [], "leading": [1.0, 0.0]}))
    assert main(["certify", str(bad), "main-upper"]) == 1
    assert "not a valid instance" in capsys.readouterr().err


def test_campaign_count_zero_exits_one(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["campaign", "--theorem", "main-upper", "--n", "2", "--count", "0", "--out", str(out)]
    )
    assert code == 1
    assert "SpecInvalid" in capsys.readouterr().err


def test_bad_grid_flag_exits_one(extremal_file, capsys):
    assert main(["certify", extremal_file, "main-upper", "--grid", "100"]) == 1
    assert "power of two" in capsys.readouterr().err


def test_violation_exits_two(tmp_path, capsys):
    # A partial zero set with positive minimum modulus genuinely breaks
    # the m-refined upper arm; the CLI must report that, not hide it.
    spec = GeneratorSpec(
        n=3, t=1, zero_region=ZeroLocation.all_outside_or_on(1.0), seed=4502, count=60
    )
    violator = None
    for r in generate(spec):
        if certify(TheoremId.MAIN_UPPER, r, CircleGrid(1.0, 512)).violations > 0:
            violator = r
            break
    assert violator is not None
    path = write_instance(tmp_path / "violator.json", violator, 1.0)
    assert main(["certify", path, "main-upper", "--grid", "512"]) == 2
    assert "violations   0" not in capsys.readouterr().out


def test_hypothesis_exits_three(tmp_path, capsys):
    import numpy as np

    from ratbound import PoleSet, RationalFunction

    poles = PoleSet([2.0, 1.5 + 0.5j])
    r = RationalFunction.from_zeros(1.0 / np.conj(poles.as_array()), poles)
    path = write_instance(tmp_path / "blaschke.json", r, 1.0)
    assert main(["certify", path, "li-upper"]) == 3
    assert "hypothesis" in capsys.readouterr().out


def test_degenerate_exits_four(tmp_path, capsys):
    path = tmp_path / "const.json"
    path.write_text(json.dumps({"poles": [], "zeros": [], "leading": [0.7, 0.0]}))
    assert main(["certify", str(path), "main-upper"]) == 4
    assert "degenerate" in capsys.readouterr().out


def test_pole_next_to_circle_exits_one(tmp_path, capsys):
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"poles": [[1.0 + 1e-13, 0.0]], "zeros": [], "leading": [1.0, 0.0]}))
    assert main(["certify", str(path), "li-upper"]) == 1
    err = capsys.readouterr().err
    assert "PoleOnCircle" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "{inst}", "li-upper", "--k", "nan"],
        ["curves", "{inst}", "li-upper", "{dir}/curve.csv", "--k", "-1"],
        ["campaign", "--theorem", "li-upper", "--n", "2", "--k", "0", "--out", "{dir}/report.json"],
        ["certify", "{negk}", "li-upper"],
    ],
    ids=["certify-k-nan", "curves-k-negative", "campaign-k-zero", "file-k-negative"],
)
def test_bad_radius_exits_one(tmp_path, capsys, argv):
    r, _ = make_extremal(TheoremId.LI_UPPER, 3.0, 1.0, 2, 2)
    inst = write_instance(tmp_path / "inst.json", r, 1.0)
    negk = tmp_path / "negk.json"
    negk.write_text(json.dumps(dict(instance_to_dict(r), k=-1)), encoding="utf-8")
    args = [a.format(inst=inst, negk=negk, dir=tmp_path) for a in argv]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "grid radius must be a positive finite real" in err and len(err.splitlines()) == 1


def test_narrow_pole_annulus_exits_one_promptly(tmp_path, capsys):
    # Every radius of [1.5, 1.5000001] lies within 1e-6 of the scan radius 1.5,
    # so no pole can be drawn; the draw budget must end the search.
    start = time.perf_counter()
    code = main(
        [
            "campaign", "--theorem", "main-upper", "--n", "3", "--k", "1.5",
            "--pole-min", "1.5", "--pole-max", "1.5000001", "--out", str(tmp_path / "report.json"),
        ]
    )
    assert code == 1
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert "SpecInvalid" in err and len(err.splitlines()) == 1


# |r| overflows on the unit circle, though every coefficient is finite.
OVERFLOW_ON_CIRCLE = {"poles": [[3, 0]] * 3, "zeros": [[-2, 0]] * 3, "leading": [1e307, 0]}
# Expanding (z + 2) times 1e308 overflows the coefficients themselves.
OVERFLOW_IN_COEFFS = {"poles": [[3, 0]], "zeros": [[-2, 0]], "leading": [1e308, 0]}


@pytest.mark.parametrize("command", ["certify", "curves"])
def test_overflow_on_circle_exits_one(tmp_path, capsys, command):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW_ON_CIRCLE), encoding="utf-8")
    out = tmp_path / "curve.csv"
    argv = [command, str(path), "li-upper"] + ([str(out)] if command == "curves" else []) + ["--k", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "ParameterOutOfRange" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("doc", [OVERFLOW_ON_CIRCLE, OVERFLOW_IN_COEFFS], ids=["on-circle", "in-coeffs"])
def test_overflow_prints_no_numpy_warning(tmp_path, capsys, doc):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["certify", str(path), "li-upper", "--k", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1


BIG_ZERO = {"poles": [[3, 0]], "zeros": [[1e200, 0]], "leading": [1, 0]}


@pytest.mark.parametrize(
    "doc, argv",
    [
        ({"poles": [[3, 0]], "zeros": [[-2, 0]], "leading": [1]}, ["certify", "{inst}", "main-upper"]),
        (None, ["campaign", "--theorem", "main-lower", "--n", "3", "--k", "0.7", "--count", "3",
                "--pole-max", "1e160", "--out", "{dir}/report.json"]),
        ({"poles": [[1e200, 0]], "zeros": [[-2, 0]], "leading": [1, 0]}, ["certify", "{inst}", "li-upper"]),
        ({"poles": [[3, 1e300]], "zeros": [[-2, 0]], "leading": [1, 0]}, ["certify", "{inst}", "li-upper"]),
        (BIG_ZERO, ["certify", "{inst}", "main-upper", "--k", "1.5"]),
        (BIG_ZERO, ["curves", "{inst}", "main-upper", "{dir}/curve.csv", "--k", "1.5"]),
    ],
    ids=["leading-one-part", "pole-max-squared-overflows", "pole-1e200", "pole-imag-1e300",
         "big-zero-certify", "big-zero-curves"],
)
def test_malformed_or_overflowing_input_exits_one(tmp_path, capsys, doc, argv):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([a.format(inst=inst, dir=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert not (tmp_path / "curve.csv").exists() and not (tmp_path / "report.json").exists()


def test_big_zero_still_certifies_the_unrefined_arm(tmp_path, capsys):
    # li-upper drops the squared term, so nothing overflows.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(BIG_ZERO), encoding="utf-8")
    assert main(["certify", str(path), "li-upper"]) == 0
    assert "violations   0" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# environment and k precedence


def test_grid_env_validation(monkeypatch, extremal_file, capsys):
    monkeypatch.setenv("RATBOUND_GRID", "abc")
    assert main(["certify", extremal_file, "main-upper"]) == 1
    assert "RATBOUND_GRID" in capsys.readouterr().err
    for raw in ("100", "32"):
        monkeypatch.setenv("RATBOUND_GRID", raw)
        assert main(["certify", extremal_file, "main-upper"]) == 1
        assert "RATBOUND_GRID" in capsys.readouterr().err


def test_grid_env_is_honoured(monkeypatch, tmp_path, extremal_file):
    monkeypatch.setenv("RATBOUND_GRID", "128")
    out = tmp_path / "curve.csv"
    assert main(["curves", extremal_file, "main-upper", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 129


def test_k_precedence(tmp_path, capsys):
    r, _ = make_extremal(TheoremId.MAIN_UPPER, 3.0, 1.5, 2, 2)
    with_k = write_instance(tmp_path / "with_k.json", r, 1.5)
    assert main(["certify", with_k, "main-upper"]) == 0
    assert "radius k     1.5" in capsys.readouterr().out
    assert main(["certify", with_k, "main-upper", "--k", "1.0"]) == 0
    assert "radius k     1" in capsys.readouterr().out
    without_k = write_instance(tmp_path / "without_k.json", r)
    assert main(["certify", without_k, "main-upper"]) == 0
    assert "radius k     1" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# curves output


def test_curves_csv_layout(tmp_path, extremal_file):
    out = tmp_path / "curve.csv"
    assert main(["curves", extremal_file, "main-upper", str(out), "--grid", "64"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 65
    assert lines[0] == "theta,deriv_modulus,bound_rhs,margin"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[3])) <= 1e-9  # equality point of the tight family
    for line in lines[1:]:
        assert len(line.split(",")) == 4


def test_curves_bytes_stable(tmp_path, extremal_file):
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main(["curves", extremal_file, "main-upper", str(one), "--grid", "256"]) == 0
    assert main(["curves", extremal_file, "main-upper", str(two), "--grid", "256"]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_curves_bytes_match_per_value_format(tmp_path, extremal_file):
    out = tmp_path / "curve.csv"
    assert main(["curves", extremal_file, "main-upper", str(out), "--grid", "1024"]) == 0
    r, _ = make_extremal(TheoremId.MAIN_UPPER, 3.0, 1.0, 2, 2)
    columns = margin_curve(TheoremId.MAIN_UPPER, r, CircleGrid(1.0, 1024))
    rows = (",".join(f"{float(x):.17g}" for x in row) + "\n" for row in zip(*columns))
    expected = "theta,deriv_modulus,bound_rhs,margin\n" + "".join(rows)
    assert out.read_bytes() == expected.encode("utf-8")


def test_curves_unwritable_out_exits_one(tmp_path, extremal_file, capsys):
    out = tmp_path / "missing-dir" / "curve.csv"
    assert main(["curves", extremal_file, "main-upper", str(out), "--grid", "64"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write" in captured.err and len(captured.err.splitlines()) == 1


def test_curves_hypothesis_exit(tmp_path, capsys):
    import numpy as np

    from ratbound import PoleSet, RationalFunction

    poles = PoleSet([2.0])
    r = RationalFunction.from_zeros(1.0 / np.conj(poles.as_array()), poles)
    path = write_instance(tmp_path / "blaschke.json", r, 1.0)
    out = tmp_path / "curve.csv"
    assert main(["curves", path, "li-upper", str(out)]) == 3
    assert not out.exists()


# ---------------------------------------------------------------------------
# campaign output


def test_campaign_writes_stable_report(tmp_path, capsys):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    argv = [
        "campaign",
        "--theorem",
        "main-upper",
        "--n",
        "2",
        "--count",
        "20",
        "--seed",
        "7",
        "--grid",
        "512",
    ]
    assert main(argv + ["--out", str(one)]) == 0
    assert main(argv + ["--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    payload = json.loads(one.read_text())
    assert payload["violations"] == 0
    assert payload["instances"] == 20
    out = capsys.readouterr().out
    assert "20/20 certified" in out


def test_campaign_unwritable_out_exits_one(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "report.json"
    argv = ["campaign", "--theorem", "main-upper", "--n", "2", "--count", "3", "--grid", "256", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write" in captured.err and len(captured.err.splitlines()) == 1


def test_campaign_missing_out_dir_fails_before_running(tmp_path, monkeypatch, capsys):
    def no_campaign(*args):
        raise AssertionError("the campaign ran although --out cannot be written")

    monkeypatch.setattr("ratbound.cli.run_campaign", no_campaign)
    out = tmp_path / "missing" / "r.json"
    argv = ["campaign", "--theorem", "main-upper", "--n", "2", "--count", "3", "--grid", "256", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write" in captured.err and len(captured.err.splitlines()) == 1


def test_campaign_boundary_zero_theorem_auto_pins(tmp_path):
    out = tmp_path / "report.json"
    argv = [
        "campaign",
        "--theorem",
        "main-upper-cor",
        "--n",
        "2",
        "--k",
        "1.5",
        "--count",
        "10",
        "--grid",
        "256",
        "--out",
        str(out),
    ]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["spec"]["p_boundary"] == 1.0
    assert payload["violations"] == 0
