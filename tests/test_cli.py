"""Command line coverage: documents, exit codes, SVG output, round trips."""

import cmath
import importlib.metadata
import json
import math
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from conftest import (
    FAR_TRIANGLE,
    FAR_WEIGHTS,
    light_vertex_instance,
    run_planarloc,
    run_python,
)
from planarloc import (
    EPS_REL,
    LengthMismatch,
    WeightedConfiguration,
    documents,
    solve_chebyshev,
    solve_ft_n,
)
from planarloc.cli import main
from planarloc.documents import (
    ResultDocument,
    cheby_result_document,
    fermat_result_document,
)
from planarloc.fermat import ARRAY_MIN, IMPORT_MIN

SVG_NS = "http://www.w3.org/2000/svg"

ROOTS3 = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
FIVE = [4 + 1j, 1 + 2j, 2 - 1j, 3 + (1 + math.sqrt(3)) * 1j, 2 - math.sqrt(3)]
FORTY_ON_A_CIRCLE = [2 + 1j + 3 * cmath.exp(2j * math.pi * k / 40) for k in range(40)]
SQUARE = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]


def _problem(tmp_path, name, kind, points, weights=None):
    payload = {"kind": kind, "points": [[z.real, z.imag] for z in points]}
    if weights is not None:
        payload["weights"] = list(weights)
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _tags(svg_text):
    root = ET.fromstring(svg_text)
    assert root.tag == f"{{{SVG_NS}}}svg"
    out = []
    for el in root.iter():
        out.append((el.tag.split("}")[-1], el.attrib))
    return out


# ------------------------------------------------------------------- solve


def test_solve_circle_document(tmp_path, capsys):
    path = _problem(tmp_path, "five.json", "chebyshev", FIVE)
    rc, out, _ = _run(capsys, ["solve", path])
    assert rc == 0
    doc = json.loads(out)
    assert doc["solver"] == "planarloc"
    assert doc["version"] == "0.1.0"
    assert doc["kind"] == "chebyshev"
    assert doc["case"] is None
    assert doc["solution"]["type"] == "point"
    x, y = doc["solution"]["location"]
    assert (x, y) == pytest.approx((2.0, 1.0), abs=1e-9)
    assert doc["radius"] == pytest.approx(2.0, abs=1e-9)
    assert doc["format"] == 3
    assert not {"support", "t", "hull_coefficients"} & set(doc)
    cert = doc["certificate"]
    assert cert["space"] == "linf"
    assert cert["passed"] is True
    assert cert["support"] == [0, 2, 3, 4]
    assert len(cert["t"]) == 4
    assert cert["tol"] == 0.0


def test_solve_median_square(tmp_path, capsys):
    path = _problem(tmp_path, "square.json", "fermat", SQUARE)
    rc, out, _ = _run(capsys, ["solve", path])
    assert rc == 0
    doc = json.loads(out)
    assert doc["case"] == "diagonal-intersection"
    assert doc["solution"]["location"] == pytest.approx([0.0, 0.0], abs=1e-9)
    assert doc["objective"] == pytest.approx(4 * math.sqrt(2), abs=1e-9)


def test_solve_segment_document(tmp_path, capsys):
    path = _problem(tmp_path, "seg.json", "fermat", [0, 1, 3], (3.0, 1.0, 2.0))
    rc, out, _ = _run(capsys, ["solve", path])
    assert rc == 0
    doc = json.loads(out)
    assert doc["case"] == "segment-of-solutions"
    assert doc["solution"]["type"] == "segment"
    assert doc["solution"]["start"] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert doc["solution"]["end"] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert doc["objective"] == pytest.approx(7.0, abs=1e-12)


def test_solve_point_just_outside_an_edge(tmp_path, capsys):
    path = _problem(tmp_path, "edge.json", "fermat", [0, 1, 0.5 + 1j, 0.5 - 1e-8j])
    rc, out, err = _run(capsys, ["solve", path])
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["case"] == "diagonal-intersection"
    assert doc["solution"]["location"] == pytest.approx([0.5, 0.0], abs=1e-12)


def test_stdout_is_pure_json(tmp_path, capsys):
    path = _problem(tmp_path, "five.json", "chebyshev", FIVE)
    rc, out, _ = _run(capsys, ["solve", path])
    assert rc == 0
    assert out.lstrip().startswith("{")
    json.loads(out)


def test_duplicate_points_rejected(tmp_path, capsys):
    path = _problem(tmp_path, "dup.json", "chebyshev", [1 + 1j, 1 + 1j, 2])
    rc, _, err = _run(capsys, ["solve", path])
    assert rc == 1
    assert "points 0 and 1 coincide" in err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": }', encoding="utf-8")
    rc, _, err = _run(capsys, ["solve", str(path)])
    assert rc == 1
    assert err.startswith("error: line 1")
    assert "Expecting value" in err


PAIR = "expected a [x, y] pair of numbers"


@pytest.mark.parametrize(
    "bad, message",
    [
        ("[1, 2, 3]", PAIR),
        ("[1]", PAIR),
        ("5", PAIR),
        ("null", PAIR),
        ('{"x": 1}', PAIR),
        ('[1, "2"]', PAIR),
        ("[true, 2]", PAIR),
        ("[1, NaN]", "coordinates must be finite"),
        ("[1e400, 0]", "coordinates must be finite"),
        pytest.param("[1" + "0" * 400 + ", 0]", "coordinates must be finite", id="huge-int"),
    ],
)
def test_long_point_list_names_its_bad_entry(tmp_path, capsys, bad, message):
    # the whole list is checked at once; the message still names the entry
    good = ", ".join(f"[{k}, {k % 7}]" for k in range(1999))
    path = tmp_path / "long.json"
    path.write_text(f'{{"kind": "fermat", "points": [{good}, {bad}]}}', encoding="utf-8")
    rc, out, err = _run(capsys, ["solve", str(path)])
    assert rc == 1
    assert out == ""
    assert err == f"error: points[1999]: {message}\n"


@pytest.mark.parametrize(
    "bad, message",
    [("true", "expected a number"), ('"2"', "expected a number"), ("-1", "must be positive and finite")],
)
def test_long_weight_list_names_its_bad_entry(tmp_path, capsys, bad, message):
    points = ", ".join(f"[{k}, {k % 7}]" for k in range(2000))
    weights = ", ".join(["1.5"] * 1999 + [bad])
    path = tmp_path / "long.json"
    path.write_text(
        f'{{"kind": "fermat", "points": [{points}], "weights": [{weights}]}}',
        encoding="utf-8",
    )
    rc, _, err = _run(capsys, ["solve", str(path)])
    assert rc == 1
    assert err == f"error: weights[1999]: {message}\n"


@pytest.mark.parametrize("sign", ["", "-"])
def test_integer_weight_beyond_the_doubles_is_a_format_error(tmp_path, capsys, sign):
    # float() of a 401-digit integer overflows; it is a weight that is not finite
    path = tmp_path / "huge.json"
    path.write_text(
        '{"kind": "fermat", "points": [[0, 0], [1, 0], [0, 1]], '
        f'"weights": [1, 1, {sign}1{"0" * 400}]}}',
        encoding="utf-8",
    )
    rc, out, err = _run(capsys, ["solve", str(path)])
    assert rc == 1
    assert out == ""
    assert err == "error: weights[2]: must be positive and finite\n"


def test_weights_summing_beyond_the_doubles_are_a_format_error(tmp_path, capsys):
    path = _problem(tmp_path, "heavy.json", "fermat", [0, 1, 1j], (1e308,) * 3)
    rc, out, err = _run(capsys, ["solve", path])
    assert (rc, out) == (1, "")
    assert err == "error: weights: their sum is beyond the doubles\n"


# weights whose left-to-right sum is the largest double; a compensated sum
# of them is beyond the doubles
BORDERLINE_WEIGHTS = (1.7976931348623157e308, 6e291, 6e291)


def test_weights_summing_to_the_largest_double_are_solved(tmp_path, capsys):
    path = _problem(tmp_path, "borderline.json", "fermat", [0, 1, 1j], BORDERLINE_WEIGHTS)
    rc, out, err = _run(capsys, ["solve", path])
    assert rc == 0, err
    config = WeightedConfiguration([0, 1, 1j], BORDERLINE_WEIGHTS)
    assert config.total_weight == BORDERLINE_WEIGHTS[0]


def _spoiled(weights, at, value):
    return [*weights[:at], value, *weights[at + 1:]]


@pytest.mark.parametrize("n", [ARRAY_MIN - 1, 200])
@pytest.mark.parametrize(
    "spoil",
    [
        lambda w: _spoiled(w, 5, 0.0),
        lambda w: _spoiled(w, 5, -1.0),
        lambda w: _spoiled(w, 5, math.nan),
        lambda w: _spoiled(w, 5, math.inf),
        lambda w: [1e307] * len(w),
        lambda w: w[:-1],
        lambda w: [*w, 1.0],
    ],
    ids=["zero", "negative", "nan", "inf", "sum-past-the-doubles", "short", "long"],
)
def test_the_cli_prints_the_configurations_weight_refusal(tmp_path, capsys, spoil, n):
    # the configuration is the one weight check: the command line states
    # its refusal as it is, on both sides of ARRAY_MIN (numpy is loaded)
    points = [complex(k % 8, k // 8 + 0.1 * k) for k in range(n)]
    weights = spoil([1.0 + 0.01 * k for k in range(n)])
    with pytest.raises((ValueError, LengthMismatch)) as refused:
        WeightedConfiguration(points, weights)
    path = _problem(tmp_path, "bad.json", "fermat", points, weights)
    rc, out, err = _run(capsys, ["solve", path])
    assert (rc, out) == (1, "")
    assert err == f"error: {refused.value}\n"


@pytest.mark.parametrize("kind, value", [("fermat", "objective"), ("chebyshev", "radius")])
def test_value_beyond_the_doubles_writes_no_document(tmp_path, capsys, kind, value):
    # the location certifies, but its weighted distance sum (about 1e311)
    # or radius (about 1e310) is a value JSON cannot spell
    pts = [0, 1e10, 1e10j, 3e9 + 4e9j, 7e9 + 1e9j]
    path = _problem(tmp_path, "far.json", kind, pts, (1e300,) * 5)
    rc, out, err = _run(capsys, ["solve", path])
    assert (rc, out) == (1, "")
    assert err == (
        f"error: result document: {value} is beyond the doubles;"
        " scale the weights or the points down\n"
    )
    # lighter weights keep every value finite, and the document strict JSON
    path = _problem(tmp_path, "light.json", kind, pts, (1e297,) * 5)
    rc, out, _ = _run(capsys, ["solve", path])
    assert rc == 0
    doc = json.loads(out, parse_constant=pytest.fail)
    assert 1e306 < doc[value] < math.inf


def test_unknown_kind(tmp_path, capsys):
    path = _problem(tmp_path, "odd.json", "voronoi", [0, 1, 1j])
    rc, _, err = _run(capsys, ["solve", str(path)])
    assert rc == 1
    assert "expected one of" in err


def test_missing_kind(tmp_path, capsys):
    path = _problem(tmp_path, "nokind.json", None, [0, 1, 1j])
    rc, _, err = _run(capsys, ["solve", str(path)])
    assert rc == 1
    assert "give it in the file or via --kind" in err


# --------------------------------------------------------------------- csv


def test_csv_plain(tmp_path, capsys):
    path = tmp_path / "pts.csv"
    path.write_text("-1,0\n1,0\n0,0.5\n", encoding="utf-8")
    rc, out, _ = _run(capsys, ["solve", str(path), "--kind", "chebyshev"])
    assert rc == 0
    assert json.loads(out)["radius"] == pytest.approx(1.0, abs=1e-9)


def test_csv_with_weights(tmp_path, capsys):
    path = tmp_path / "wpts.csv"
    path.write_text("# location, weight\n0,0,3\n1,0,1\n3,0,2\n", encoding="utf-8")
    rc, out, _ = _run(capsys, ["solve", str(path), "--kind", "fermat"])
    assert rc == 0
    assert json.loads(out)["objective"] == pytest.approx(7.0, abs=1e-12)


def test_csv_bad_row(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\nnope\n1,1\n", encoding="utf-8")
    rc, _, err = _run(capsys, ["solve", str(path), "--kind", "chebyshev"])
    assert rc == 1
    assert "line 2" in err


def test_csv_empty_field(tmp_path, capsys):
    # an empty cell would shift the columns after it: 1,,2 is not (1, 2)
    path = tmp_path / "gap.csv"
    path.write_text("0,0\n1,,2\n3,1\n", encoding="utf-8")
    rc, out, err = _run(capsys, ["solve", str(path), "--kind", "fermat"])
    assert rc == 1
    assert out == ""
    assert "line 2: empty field" in err
    # a trailing separator leaves no field after the gap, so it is no gap
    path.write_text("0,0,\n1,0,\n0,1,\n", encoding="utf-8")
    rc, _, _ = _run(capsys, ["solve", str(path), "--kind", "fermat"])
    assert rc == 0


def test_csv_inconsistent_weight_column(tmp_path, capsys):
    path = tmp_path / "mixed.csv"
    path.write_text("0,0,2\n1,0\n", encoding="utf-8")
    rc, _, err = _run(capsys, ["solve", str(path), "--kind", "fermat"])
    assert rc == 1
    assert "every row or none" in err


# ----------------------------------------------------------------- certify


def test_certify_at_the_optimum(tmp_path, capsys):
    path = _problem(tmp_path, "eq.json", "fermat", ROOTS3)
    rc, out, err = _run(capsys, ["certify", path, "--at", "0,0"])
    assert rc == 0
    assert "passed=True" in err
    doc = json.loads(out)
    assert doc["kind"] == "fermat"
    assert not {"passed", "residual", "slack"} & set(doc)
    assert doc["certificate"]["passed"] is True
    assert doc["certificate"]["space"] == "l1"
    assert doc["candidate"] == pytest.approx([0.0, 0.0])


def test_certify_rejects_an_arbitrary_point(tmp_path, capsys):
    path = _problem(tmp_path, "eq.json", "fermat", ROOTS3)
    rc, _, err = _run(capsys, ["certify", path, "--at", "1,0"])
    assert rc == 2
    assert "passed=False" in err


def test_certify_circle_center(tmp_path, capsys):
    path = _problem(tmp_path, "five.json", "chebyshev", FIVE)
    rc, _, err = _run(capsys, ["certify", path, "--at", "2,1"])
    assert rc == 0
    assert "passed=True" in err


@pytest.mark.parametrize("extra", [["--at", "0,0"], ["--certificate-only"]])
def test_solve_takes_no_candidate(tmp_path, capsys, extra):
    # certify --at is the one command that checks a given location
    path = _problem(tmp_path, "eq.json", "fermat", ROOTS3)
    rc, _, err = _run(capsys, ["solve", path, *extra])
    assert rc == 1
    assert "unrecognized arguments" in err


def test_usage_errors_exit_1_and_help_exits_0(tmp_path, capsys):
    # exit 2 means a refused certificate, so a mistyped command line is 1
    path = _problem(tmp_path, "eq.json", "fermat", ROOTS3)
    for argv in (["solve"], ["certify", path], ["solve", path, "--tol", "x"], ["frobnicate"]):
        rc, _, err = _run(capsys, argv)
        assert rc == 1, argv
        assert "usage:" in err
    with pytest.raises(SystemExit) as info:
        main(["solve", "--help"])
    assert info.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_certify_a_single_point(tmp_path, capsys):
    path = _problem(tmp_path, "one.json", "chebyshev", [50 - 7j])
    rc, out, err = _run(capsys, ["certify", path, "--at", "50,-7"])
    assert rc == 0, err
    assert json.loads(out)["certificate"]["passed"] is True
    for at in ("50,-6", "0,0"):
        rc, out, _ = _run(capsys, ["certify", path, "--at", at])
        assert rc == 2
        assert json.loads(out)["certificate"]["passed"] is False


@pytest.mark.parametrize("command", ["solve", "certify"])
def test_circle_refuses_a_tolerance(tmp_path, capsys, command):
    path = _problem(tmp_path, "five.json", "chebyshev", FIVE)
    at = ["--at", "2,1"] if command == "certify" else []
    rc, out, err = _run(capsys, [command, path, *at, "--tol", "1e-12"])
    assert rc == 1
    assert out == ""
    assert err == "error: --tol: the covering circle's certificate takes no tolerance\n"


@pytest.mark.parametrize("kind", ["fermat", "chebyshev"])
@pytest.mark.parametrize("at", ["1.7e308,1.7e308", "inf,0"])
def test_certify_rejects_an_unusable_candidate(tmp_path, capsys, kind, at):
    # the first candidate is finite, but its offsets' moduli overflow
    path = _problem(tmp_path, "eq.json", kind, ROOTS3)
    rc, out, err = _run(capsys, ["certify", path, "--at", at])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: --at: ")


# -------------------------------------------------------------- round trip


def test_document_round_trip(tmp_path, capsys):
    path = _problem(tmp_path, "five.json", "chebyshev", FIVE)
    rc, out, _ = _run(capsys, ["certify", path, "--at", "0,0"])
    assert rc == 2
    doc = ResultDocument.from_json(out)
    # a refused max-norm certificate has no functional: its residual is null
    assert doc.payload["certificate"]["residual"] is None
    json.loads(out, parse_constant=pytest.fail)
    again = ResultDocument.from_json(doc.to_json())
    assert again.payload == doc.payload
    assert again.payload == json.loads(out)


def test_documents_stay_small_at_2000_points(rng):
    n = 2000
    points = [complex(x, y) for x, y in rng.uniform(-1.0, 1.0, (n, 2))]
    config = WeightedConfiguration.of(points, rng.uniform(0.5, 2.0, n))
    median = fermat_result_document(solve_ft_n(config), 1e-10)
    circle = cheby_result_document(solve_chebyshev(points))
    for doc in (median, circle):
        text = doc.to_json()
        assert len(text.encode()) < 4096
        assert json.loads(text) == doc.payload
        cert = doc.payload["certificate"]
        assert doc.payload["format"] == 3
        assert "d" not in cert
        if cert["t"] is not None:
            assert len(cert["t"]) == len(cert["support"])


def test_to_json_round_trips_every_double():
    payload = {
        "a": [1.5, -0.0, 0.1, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308],
        "b": [1, 2.5, True, None, "x"],
        "c": {"d": -1e-300, "e": []},
    }
    back = json.loads(ResultDocument(payload).to_json())
    # the repr compares the sign of zero and every type as well
    assert repr(back) == repr(payload)
    assert back == payload
    # JSON has no spelling for the non-finite doubles: they are refused
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="not JSON compliant"):
            ResultDocument({"a": [1.5, value]}).to_json()


# --------------------------------------------------------------------- svg


def test_svg_median_rays(tmp_path, capsys):
    path = _problem(tmp_path, "eq.json", "fermat", ROOTS3)
    svg_path = tmp_path / "eq.svg"
    rc, _, _ = _run(capsys, ["solve", path, "--svg", str(svg_path)])
    assert rc == 0
    tags = _tags(svg_path.read_text(encoding="utf-8"))
    rays = [a for t, a in tags if t == "line" and a.get("class") == "ray"]
    assert len(rays) == 3
    assert any(t == "g" and a.get("transform") == "scale(1,-1)" for t, a in tags)


def test_svg_circle_radius(tmp_path, capsys):
    path = _problem(tmp_path, "five.json", "chebyshev", FIVE)
    svg_path = tmp_path / "five.svg"
    rc, _, _ = _run(capsys, ["solve", path, "--svg", str(svg_path)])
    assert rc == 0
    tags = _tags(svg_path.read_text(encoding="utf-8"))
    radius = [a for t, a in tags if t == "circle" and a.get("class") == "radius"]
    assert len(radius) == 1
    assert float(radius[0]["r"]) == pytest.approx(2.0, abs=1e-6)
    assert [a for t, a in tags if t == "circle" and a.get("class") == "support"]


def test_svg_solution_segment(tmp_path, capsys):
    path = _problem(tmp_path, "seg.json", "fermat", [0, 1, 3], (3.0, 1.0, 2.0))
    svg_path = tmp_path / "seg.svg"
    rc, _, _ = _run(capsys, ["solve", path, "--svg", str(svg_path)])
    assert rc == 0
    tags = _tags(svg_path.read_text(encoding="utf-8"))
    assert [a for t, a in tags if t == "line" and a.get("class") == "solution-segment"]


# -------------------------------------------------------------------- plot


def test_plot_round_trip(tmp_path, capsys):
    path = _problem(tmp_path, "five.json", "chebyshev", FIVE)
    rc, out, _ = _run(capsys, ["solve", path])
    assert rc == 0
    result = tmp_path / "result.json"
    result.write_text(out, encoding="utf-8")
    target = tmp_path / "plot.svg"
    rc, _, _ = _run(capsys, ["plot", path, str(result), str(target)])
    assert rc == 0
    assert target.exists()


def test_plot_refuses_a_tampered_result(tmp_path, capsys):
    # a single point is certified like any other covering circle
    for name, points, moved in (("five", FIVE, [9.0, 9.0]), ("one", [1 + 1j], [50.0, -7.0])):
        path = _problem(tmp_path, f"{name}.json", "chebyshev", points)
        rc, out, _ = _run(capsys, ["solve", path])
        assert rc == 0
        payload = json.loads(out)
        payload["solution"]["location"] = moved
        result = tmp_path / f"{name}-tampered.json"
        result.write_text(json.dumps(payload), encoding="utf-8")
        target = tmp_path / f"{name}.svg"
        rc, _, err = _run(capsys, ["plot", path, str(result), str(target)])
        assert rc == 2, name
        assert "refusing to plot" in err
        assert not target.exists()


def test_plot_names_the_result_document_for_a_bad_location(tmp_path, capsys):
    path = _problem(tmp_path, "three.json", "chebyshev", [0, 1, 1j])
    rc, out, _ = _run(capsys, ["solve", path])
    assert rc == 0
    payload = json.loads(out)
    payload["solution"]["location"] = [math.inf, 0.0]
    result = tmp_path / "bad.json"
    result.write_text(json.dumps(payload), encoding="utf-8")
    target = tmp_path / "bad.svg"
    rc, _, err = _run(capsys, ["plot", path, str(result), str(target)])
    assert rc == 1
    assert "error: result document: non-finite coordinate" in err
    assert "--at" not in err
    assert not target.exists()


def _light_vertex_result(tmp_path, capsys):
    # a median whose certificate passes at --tol 1e-6 but not at EPS_REL
    pts, wts = light_vertex_instance()
    path = _problem(tmp_path, "light.json", "fermat", pts, wts)
    rc, out, err = _run(capsys, ["solve", path, "--tol", "1e-6"])
    assert rc == 0, err
    return path, json.loads(out)


def test_plot_honours_the_stated_tolerance(tmp_path, capsys):
    path, payload = _light_vertex_result(tmp_path, capsys)
    result = tmp_path / "result.json"
    result.write_text(json.dumps(payload), encoding="utf-8")
    target = tmp_path / "light.svg"
    rc, _, err = _run(capsys, ["plot", path, str(result), str(target)])
    assert rc == 0, err
    assert target.exists()


def test_plot_withholds_a_location_that_fails_its_stated_tolerance(tmp_path, capsys):
    # the same location stated at EPS_REL: the re-check runs at EPS_REL,
    # where it fails, and not at any looser floor
    path, payload = _light_vertex_result(tmp_path, capsys)
    payload["tolerances"]["tol"] = EPS_REL
    result = tmp_path / "result.json"
    result.write_text(json.dumps(payload), encoding="utf-8")
    target = tmp_path / "light.svg"
    rc, out, err = _run(capsys, ["plot", path, str(result), str(target)])
    assert (rc, out) == (2, "")
    assert err == "certification failed: refusing to plot\n"
    assert not target.exists()


@pytest.mark.parametrize("tol", [None, 0.0, -1e-6, math.inf, math.nan, "1e-6", True])
def test_plot_refuses_an_unusable_stated_tolerance(tmp_path, capsys, tol):
    path, payload = _light_vertex_result(tmp_path, capsys)
    if tol is None:
        del payload["tolerances"]["tol"]
    else:
        payload["tolerances"]["tol"] = tol
    result = tmp_path / "result.json"
    result.write_text(json.dumps(payload), encoding="utf-8")
    target = tmp_path / "light.svg"
    rc, out, err = _run(capsys, ["plot", path, str(result), str(target)])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: result document: tolerances.tol must be positive and finite")
    assert not target.exists()


def _solved(tmp_path, capsys, name, kind, points, weights=None):
    path = _problem(tmp_path, f"{name}.json", kind, points, weights)
    rc, out, err = _run(capsys, ["solve", path])
    assert rc == 0, err
    return path, json.loads(out)


def _plot(tmp_path, capsys, path, payload, name):
    result = tmp_path / f"{name}.json"
    result.write_text(json.dumps(payload), encoding="utf-8")
    target = tmp_path / f"{name}.svg"
    rc, out, err = _run(capsys, ["plot", path, str(result), str(target)])
    return rc, out, err, target


@pytest.mark.parametrize(
    "field, value",
    [
        ("location", None),
        ("location", [1.0]),
        ("location", ["a", "b"]),
        ("start", None),
        ("location", [True, False]),
    ],
    ids=["missing", "one-coordinate", "strings", "null-start", "bools"],
)
def test_plot_reports_a_malformed_solution(tmp_path, capsys, field, value):
    # these ended in a KeyError, ValueError or TypeError, and the bools
    # were read as (1, 0)
    if field == "start":
        path, payload = _solved(tmp_path, capsys, "seg", "fermat", [0, 1, 3], (3.0, 1.0, 2.0))
        payload["solution"]["start"] = value
    else:
        path, payload = _solved(tmp_path, capsys, "five", "chebyshev", FIVE)
        if value is None:
            del payload["solution"]["location"]
        else:
            payload["solution"]["location"] = value
    rc, out, err, target = _plot(tmp_path, capsys, path, payload, "bad")
    assert rc == 1
    assert out == ""
    assert err == f"error: result document: solution.{field}: expected a [x, y] pair of numbers\n"
    assert not target.exists()


def test_plot_rechecks_a_segment_at_its_midpoint(tmp_path, capsys):
    # both ends of the segment from 0 to 1 are optimal; with its end moved
    # to 1 + 1j the start still passes, but the midpoint checked does not
    path, payload = _solved(tmp_path, capsys, "seg", "fermat", [0, 1, 3], (3.0, 1.0, 2.0))
    assert payload["solution"] == {"type": "segment", "start": [0.0, 0.0], "end": [1.0, 0.0]}
    payload["solution"]["end"] = [1.0, 1.0]
    rc, out, err, target = _plot(tmp_path, capsys, path, payload, "moved")
    assert (rc, out) == (2, "")
    assert err == "certification failed: refusing to plot\n"
    assert not target.exists()


@pytest.mark.parametrize(
    "tamper",
    [
        lambda p: p["certificate"].update(support=[99]),
        lambda p: p.update(radius="x"),
        lambda p: p.update(certificate="x"),
    ],
    ids=["support", "radius", "certificate"],
)
def test_plot_draws_only_what_it_rechecked(tmp_path, capsys, tamper):
    # the support and the radius come from the certificate re-run at the
    # stated center, never from the document
    path, payload = _solved(tmp_path, capsys, "five", "chebyshev", FIVE)
    rc, _, err, honest = _plot(tmp_path, capsys, path, payload, "honest")
    assert rc == 0, err
    tamper(payload)
    rc, _, err, tampered = _plot(tmp_path, capsys, path, payload, "tampered")
    assert rc == 0, err
    assert tampered.read_bytes() == honest.read_bytes()


@pytest.mark.parametrize(
    "kind, points, weights",
    [
        ("fermat", [0, 2, 3 + 1j, 1 + 2j, -1 + 1j], (1.0, 2.0, 1.0, 1.5, 1.2)),
        ("chebyshev", FIVE, None),
    ],
    ids=["median", "circle"],
)
def test_solve_withholds_a_document_that_moved(
    tmp_path, capsys, monkeypatch, kind, points, weights
):
    # the re-check runs on the document about to be printed, not on the
    # result it was built from
    def shifted(build):
        def build_and_shift(*args):
            doc = build(*args)
            x, y = doc.payload["solution"]["location"]
            doc.payload["solution"]["location"] = [x + 0.25, y]
            return doc

        return build_and_shift

    for name in ("fermat_result_document", "cheby_result_document"):
        monkeypatch.setattr(documents, name, shifted(getattr(documents, name)))
    path = _problem(tmp_path, "moved.json", kind, points, weights)
    rc, out, err = _run(capsys, ["solve", path])
    assert rc == 2
    assert out == ""
    assert "certification failed: result withheld" in err


@pytest.mark.parametrize(
    "kind, points, weights",
    [
        ("fermat", [0, 2, 1 + 1.5j], (1.0, 1.3, 0.8)),
        ("fermat", SQUARE, None),
        ("fermat", [0, 2, 3 + 1j, 1 + 2j, -1 + 1j], (1.0, 2.0, 1.0, 1.5, 1.2)),
        ("fermat", [0, 1, 3], (3.0, 1.0, 2.0)),
        ("chebyshev", FIVE, None),
        ("chebyshev", FIVE, (1.0, 2.0, 1.0, 1.5, 1.2)),
    ],
    ids=["three-point", "four-point", "n-point", "segment", "circle", "weighted-circle"],
)
def test_solve_svg_and_plot_draw_the_same(tmp_path, capsys, kind, points, weights):
    path = _problem(tmp_path, "problem.json", kind, points, weights)
    solved = tmp_path / "solved.svg"
    rc, out, err = _run(capsys, ["solve", path, "--svg", str(solved)])
    assert rc == 0, err
    rc, _, err, plotted = _plot(tmp_path, capsys, path, json.loads(out), "plotted")
    assert rc == 0, err
    assert plotted.read_bytes() == solved.read_bytes()


# ------------------------------------------------------------ odds and ends


def test_oracle_cross_check(tmp_path, capsys):
    path = _problem(tmp_path, "five.json", "chebyshev", FIVE)
    rc, _, _ = _run(capsys, ["solve", path, "--oracle"])
    assert rc == 0


def test_oracle_check_is_one_sided(tmp_path, capsys):
    # two points 2 apart make radius 1 optimal; the grid oracle, an upper
    # bound, only gets within about 1e-4 of it
    path = _problem(
        tmp_path, "pair.json", "chebyshev", [-1, 1, -0.23 + 0.03j, -0.22 + 0.02j]
    )
    rc, out, err = _run(capsys, ["solve", path, "--oracle"])
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["radius"] == 1.0
    assert doc["certificate"]["passed"] is True


def test_refused_triangle_exits_2(tmp_path, capsys):
    path = _problem(tmp_path, "far.json", "fermat", FAR_TRIANGLE, FAR_WEIGHTS)
    rc, out, err = _run(capsys, ["solve", path])
    assert rc == 2
    assert out == ""
    # the solver itself refuses; no uncertified result reaches the CLI
    assert "certification failed: interior solution failed its certificate" in err


def test_iteration_budget_surfaces_as_failure(tmp_path, capsys):
    path = _problem(
        tmp_path, "many.json", "fermat", [0, 1, 3 + 1j, 2 + 2j, 0.5 + 1.7j]
    )
    rc, _, err = _run(capsys, ["solve", path, "--max-iter", "1"])
    assert rc == 2
    assert "certification failed" in err


def test_recheck_uses_the_stated_tolerance(tmp_path, capsys):
    pts, wts = light_vertex_instance()
    path = _problem(tmp_path, "light.json", "fermat", pts, wts)
    rc, out, err = _run(capsys, ["solve", path, "--tol", "1e-6"])
    assert rc == 0, err
    doc = json.loads(out)
    assert doc["solution"]["location"] == [pts[0].real, pts[0].imag]
    assert doc["certificate"]["passed"] is True
    assert doc["tolerances"]["tol"] == 1e-6


@pytest.mark.parametrize("command", ["solve", "certify"])
@pytest.mark.parametrize("tol", ["inf", "0", "-1", "nan"])
def test_unusable_tolerance_is_a_format_error(tmp_path, capsys, command, tol):
    # --tol inf used to pass the vertex (2, 0), whose certificate leaves
    # 1.21 of the pull uncancelled; the others ended in a traceback
    path = _problem(
        tmp_path, "five.json", "fermat", [0, 2, 3 + 1j, 1 + 2j, -1 + 1j],
        (1.0, 2.0, 1.0, 1.5, 1.2),
    )
    at = ["--at", "2,0"] if command == "certify" else []
    rc, out, err = _run(capsys, [command, path, *at, f"--tol={tol}"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: --tol: ")


@pytest.mark.parametrize("tol", ["1e-15", "1e-6"])
@pytest.mark.parametrize(
    "points, weights",
    [([0, 2, 1 + 1.5j], (1.0, 1.3, 0.8)), ([0, 2, 3 + 1j, 2 + 2j], None)],
    ids=["three", "four"],
)
def test_closed_form_states_the_tolerance_it_passed_at(tmp_path, capsys, tol, points, weights):
    # the closed forms certify at EPS_REL whatever --tol says
    path = _problem(tmp_path, "closed.json", "fermat", points, weights)
    rc, out, err = _run(capsys, ["solve", path, "--tol", tol])
    assert rc == 0, err
    doc = json.loads(out)
    total = sum(weights or (1.0,) * len(points))
    assert doc["tolerances"]["tol"] == EPS_REL
    assert doc["certificate"]["tol"] == pytest.approx(EPS_REL * total, rel=1e-12)


@pytest.mark.parametrize("max_iter", ["-1", "0"])
@pytest.mark.parametrize("points", [[0, 2, 1 + 1.5j], FIVE], ids=["three", "five"])
def test_max_iter_below_one_is_a_usage_error(tmp_path, capsys, max_iter, points):
    # -1 used to be reported as a refused certificate, and ignored on three points
    path = _problem(tmp_path, "median.json", "fermat", points)
    rc, out, err = _run(capsys, ["solve", path, "--max-iter", max_iter])
    assert rc == 1
    assert out == ""
    assert err == "error: --max-iter: must be at least 1\n"


def test_default_tolerance_still_refuses_a_light_vertex(tmp_path, capsys):
    pts, wts = light_vertex_instance()
    path = _problem(tmp_path, "light.json", "fermat", pts, wts)
    rc, out, err = _run(capsys, ["solve", path])
    assert rc == 2
    assert out == ""
    assert "certification failed" in err


def test_console_script(tmp_path):
    path = _problem(tmp_path, "five.json", "chebyshev", FIVE)
    proc = run_planarloc(["solve", path], cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["radius"] == pytest.approx(2.0, abs=1e-9)

    # the installed ``planarloc`` script runs the same main as ``-m``
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["planarloc"] == "planarloc.cli:main"
    entry = importlib.metadata.EntryPoint(
        name="planarloc", value=scripts["planarloc"], group="console_scripts"
    )
    assert entry.load() is main


def test_overflowing_spread_is_a_format_error(tmp_path, capsys):
    # the points are distinct; only their spread, 2e308, overflows
    path = _problem(tmp_path, "huge.json", "fermat", [1e308, -1e308, 1j])
    rc, out, err = _run(capsys, ["solve", path])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: points: coincidence band overflows")
    assert "points 0 and 1" not in err


# ------------------------------------------------------------------- numpy

MODULES_PROBE = """
import json, sys
from planarloc.cli import main
if main(["solve", sys.argv[1]]) != 0:
    raise SystemExit("solve failed")
names = ("dataclasses", "inspect", "planarloc.chebyshev", "planarloc.oracle",
         "planarloc.svgplot", "csv")
print(json.dumps([m for m in names if m in sys.modules]), file=sys.stderr)
# the modules that define one of the paper's results, read without loading any
results = {"addition_preserves", "classify_l1_orthogonal_3", "unimodular_triple_class"}
defining = [m for m, mod in list(sys.modules.items())
            if m.split(".")[0] == "planarloc" and not results.isdisjoint(vars(mod))]
print(json.dumps(defining), file=sys.stderr)
"""


def test_a_json_median_loads_neither_svg_nor_csv(tmp_path):
    # a solve imports what its problem needs: the SVG writer, the CSV
    # reader, the covering circle and the grid oracle only when used, and
    # neither dataclasses nor the inspect module it pulls in; no module it
    # loads holds the paper's results about a certified optimum
    median = _problem(tmp_path, "five.json", "fermat", FIVE)
    circle = _problem(tmp_path, "circle.json", "chebyshev", FIVE)
    loaded, results = [], []
    for path in (median, circle):
        proc = run_python(["-c", MODULES_PROBE, path], cwd=tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        *_, modules, defining = proc.stderr.splitlines()
        loaded.append(json.loads(modules))
        results.append(json.loads(defining))
    assert loaded == [[], ["planarloc.chebyshev"]]
    assert results == [[], []]


NUMPY_PROBE = """
import json, sys
from planarloc.cli import main
loaded = []
for path in sys.argv[1:]:
    if main(["solve", path]) != 0:
        raise SystemExit(f"solve failed on {path}")
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded), file=sys.stderr)
"""


def _spiral(n):
    # n points of a sunflower spiral, about one unit apart
    return [cmath.rect(math.sqrt(k + 0.5), 2.399963 * k) for k in range(n)]


def test_closed_forms_run_without_numpy(tmp_path):
    files = [
        _problem(tmp_path, "three.json", "fermat", [0, 2, 1 + 1.5j], (1.0, 1.3, 0.8)),
        _problem(tmp_path, "four.json", "fermat", SQUARE),
        _problem(tmp_path, "circle.json", "chebyshev", FIVE),
        # past fermat.ARRAY_MIN: validation takes Python passes without numpy
        _problem(tmp_path, "circle-40.json", "chebyshev", FORTY_ON_A_CIRCLE),
        _problem(tmp_path, "five.json", "fermat", FIVE),
        # below fermat.IMPORT_MIN a median is solved in Python loops too
        _problem(tmp_path, "median-40.json", "fermat", FORTY_ON_A_CIRCLE),
    ]
    proc = run_python(["-c", NUMPY_PROBE, *files], cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == [False] * 6


DISTINCT_PROBE = """
import json, sys
from planarloc import geom
from planarloc.cli import main
handed = []
check = geom.ensure_distinct
def probe(points, scale=None):
    handed.append(type(points).__name__)
    return check(points, scale)
geom.ensure_distinct = probe
seen = []
for path in sys.argv[1:]:
    del handed[:]
    if main(["solve", path]) != 0:
        raise SystemExit(f"solve failed on {path}")
    seen.append([handed[0], "numpy" in sys.modules])
print(json.dumps(seen), file=sys.stderr)
"""


def test_a_large_median_validates_on_arrays(tmp_path):
    # from fermat.IMPORT_MIN points on a median loads numpy before its
    # configuration is built; a smaller median and a covering circle load none
    files = [
        _problem(tmp_path, "circle-40.json", "chebyshev", FORTY_ON_A_CIRCLE),
        _problem(tmp_path, "median-40.json", "fermat", FORTY_ON_A_CIRCLE),
        _problem(tmp_path, "median-large.json", "fermat", _spiral(IMPORT_MIN)),
    ]
    proc = run_python(["-c", DISTINCT_PROBE, *files], cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == [
        ["tuple", False],
        ["tuple", False],
        ["ndarray", True],
    ]


LIBRARY_PROBE = """
import cmath, json, math, sys
from planarloc import WeightedConfiguration, solve_ft_n
from planarloc.fermat import IMPORT_MIN
loaded = []
for n in (IMPORT_MIN - 1, IMPORT_MIN):
    spiral = [cmath.rect(math.sqrt(k + 0.5), 2.399963 * k) for k in range(n)]
    if not solve_ft_n(WeightedConfiguration.of(spiral)).certificate.passed:
        raise SystemExit(f"no certified median of {n} points")
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded), file=sys.stderr)
"""


def test_the_solver_loads_numpy_from_import_min(tmp_path):
    # the library on its own: below fermat.IMPORT_MIN points solve_ft_n runs
    # its loops without numpy, and from there it loads numpy for its arrays
    proc = run_python(["-c", LIBRARY_PROBE], cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == [False, True]


SWITCH_PROBE = """
import json, random, sys
from planarloc import MaxIterationsExceeded, WeightedConfiguration, solve_ft_n
gen = random.Random(0)
n = 1000
pts = [complex(gen.random(), gen.random()) for _ in range(n)]
wts = [gen.uniform(0.5, 2.0) for _ in range(n)]
# point 0 just short of the others' pull: no iterate certifies
z0 = pts[0]
wts[0] = abs(sum(a * (z - z0) / abs(z - z0) for z, a in zip(pts[1:], wts[1:]))) * (1 - 1e-9)
config = WeightedConfiguration.of(pts, wts)
loaded = []
for max_iter in (2, 200):
    try:
        solve_ft_n(config, max_iter=max_iter)
    except MaxIterationsExceeded:
        loaded.append("numpy" in sys.modules)
print(json.dumps(loaded), file=sys.stderr)
"""


def test_a_long_solve_moves_to_the_arrays(tmp_path):
    # two iterations stay on the loops; by 200 a Newton step has been
    # refused after all its halvings, and the solve has moved to the arrays
    proc = run_python(["-c", SWITCH_PROBE], cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == [False, True]
