"""End-to-end tests of the command-line surface and the file formats."""

import json
import os
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scalar_reference as reference
from resilient_cluster import KMEDIAN, Clustering, Instance, cost
from resilient_cluster.cli import CliError, load_instance_file, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_solve_roundtrip(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run(capsys, "generate", "--n", "12", "--k", "3", "--seed", "7", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["n"] == 12 and doc["k"] == 3
    code, out, _ = run(capsys, "solve", "--input", str(path), "--method", "oracle")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "SOLVED"
    planted = doc["planted"]
    got = {frozenset(i for i, g in enumerate(report["clustering"]["assignment"]) if g == c)
           for c in set(report["clustering"]["assignment"]) if c != -1}
    want = {frozenset(i for i, g in enumerate(planted["assignment"]) if g == c)
            for c in set(planted["assignment"]) if c != -1}
    assert got == want


def test_generate_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--n", "10", "--k", "2", "--seed", "3"]
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_sigma_too_small_exit_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "generate", "--n", "10", "--k", "2", "--sigma", "1.5",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "sigma" in err


def test_certify_planted_exit_0(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "generate", "--n", "12", "--k", "3", "--seed", "1", "--out", str(path))
    code, out, _ = run(capsys, "certify", "--input", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "OPTIMAL"
    assert report["cost"] == report["radius"]
    # k + 1 points that no k centers cover within the candidate below R*
    assert report["route"] == "packing"
    packing = report["packing"]
    assert packing["radius"] < report["radius"]
    assert len(set(packing["points"])) == 4


def _gap_instance_doc():
    # two 4-cycles with unit edges, far apart, k = 3: the relaxation goes
    # fractional at its minimum radius while the true optimum needs radius 2
    def ring(u, v, s):
        a = abs(u - v)
        return min(a, s - a)

    n = 8
    dist = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            dist[u][v] = ring(u % 4, v % 4, 4) if (u < 4) == (v < 4) else 10
    return {"k": 3, "dist": dist, "symmetric": True}


def test_certify_gap_instance_exit_3_with_falsifier(tmp_path, capsys):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(_gap_instance_doc()))
    code, out, _ = run(capsys, "certify", "--input", str(path), "--falsify")
    assert code == 3
    report = json.loads(out)
    assert report["verdict"] == "NOT_2PR"
    assert report["route"] == "search" and report["packing"] is None
    assert report["falsifier"]["verdict"] == "not-resilient"
    assert "alternate" in report["falsifier"]["witness"]


def test_certify_float_five_cycle_reports_exact_thirds(tmp_path, capsys):
    # d = 1.0 on the edges of a 5-cycle and 2.0 elsewhere, k = 2: at R* = 1
    # the fractional cover puts 1/3 on every point, confirmed exactly although
    # the input is float
    n = 5
    dist = [[0.0 if u == v else 1.0 if (u - v) % n in (1, n - 1) else 2.0
             for v in range(n)] for u in range(n)]
    path = tmp_path / "c5.json"
    path.write_text(json.dumps({"k": 2, "dist": dist, "symmetric": True}))
    code, out, _ = run(capsys, "certify", "--input", str(path))
    assert code == 3
    report = json.loads(out)
    assert report["verdict"] == "NOT_2PR" and report["radius"] == 1.0
    assert report["lp"]["y"] == [1 / 3] * n


def test_certify_falsifier_reports_tries_and_budget(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "generate", "--n", "10", "--k", "3", "--seed", "2", "--out", str(path))
    code, out, _ = run(capsys, "certify", "--input", str(path), "--falsify")
    assert code == 0
    falsifier = json.loads(out)["falsifier"]
    assert falsifier["verdict"] == "resilient-unrefuted"
    assert falsifier["tried"] > 0
    assert 0 <= falsifier["invalid"] <= falsifier["tried"]
    assert falsifier["exhausted"] is False


def test_certify_uniform_control_is_integral_but_falsified(tmp_path, capsys):
    # a uniform metric is not resilient (many optima) yet its relaxation is
    # integral, so certification reports a provably optimal clustering while
    # the falsifier still exposes the non-uniqueness
    path = tmp_path / "uniform.json"
    dist = [[0 if u == v else 1 for v in range(4)] for u in range(4)]
    path.write_text(json.dumps({"n": 4, "k": 2, "z": 0, "symmetric": True, "dist": dist}))
    code, out, _ = run(capsys, "certify", "--input", str(path), "--falsify")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "OPTIMAL"
    assert report["falsifier"]["verdict"] == "not-resilient"


def test_empty_file_exit_1(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("")
    code, _, err = run(capsys, "certify", "--input", str(path))
    assert code == 1
    assert "empty" in err


def test_internal_check_failure_exit_4(tmp_path, capsys, monkeypatch):
    from resilient_cluster import mstdp

    path = tmp_path / "inst.json"
    run(capsys, "generate", "--n", "12", "--k", "2", "--z", "2", "--mode", "outlier",
        "--seed", "1", "--out", str(path))
    monkeypatch.setattr(mstdp, "cost", lambda inst, clus, obj: cost(inst, clus, obj) + 1)
    code, out, err = run(capsys, "solve", "--input", str(path), "--method", "mstdp",
                         "--objective", "kmedian")
    assert code == 4
    assert out == ""
    assert "internal error" in err


def test_inconsistent_reported_cost_exit_4(tmp_path, capsys, monkeypatch):
    from resilient_cluster import cli

    path = tmp_path / "inst.json"
    run(capsys, "generate", "--n", "12", "--k", "3", "--seed", "1", "--out", str(path))
    calls = []

    def drifting(inst, clus, obj):
        calls.append(obj)
        return cost(inst, clus, obj) + len(calls)

    monkeypatch.setattr(cli, "cost", drifting)
    code, out, err = run(capsys, "solve", "--input", str(path), "--method", "oracle")
    assert code == 4
    assert out == ""
    assert "internal error" in err


@pytest.mark.parametrize("batch", [False, True])
def test_unconfirmed_float_solve_exit_5(tmp_path, capsys, monkeypatch, batch):
    from resilient_cluster import lp

    path = tmp_path / "gap.json"
    path.write_text(json.dumps(_gap_instance_doc()))
    # every check fails, on the rationalized float solve and on its basis
    monkeypatch.setattr(lp, "_exact_outcome", lambda *args: "injected")
    code, out, err = run(capsys, "certify", "--input", str(tmp_path if batch else path))
    assert code == 5
    assert out == ""
    assert err.startswith("error: the float solve could not be confirmed exactly at radius ")
    radius = err.split("at radius ")[1].split(":")[0]
    assert radius in {str(r) for r in Instance(**_gap_instance_doc()).distinct_distances()}


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2,\n  "k": ]\n}')
    code, _, err = run(capsys, "solve", "--input", str(path), "--method", "oracle")
    assert code == 1
    assert "line 2" in err and "column" in err


def test_k_larger_than_n_exit_1(tmp_path, capsys):
    path = tmp_path / "badk.json"
    path.write_text(json.dumps({"k": 5, "dist": [[0, 1], [1, 0]], "symmetric": True}))
    code, _, err = run(capsys, "solve", "--input", str(path), "--method", "oracle")
    assert code == 1


def test_non_metric_rejected(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(json.dumps({"k": 1, "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}))
    code, _, err = run(capsys, "solve", "--input", str(path), "--method", "oracle")
    assert code == 1
    assert "metric" in err


@pytest.mark.parametrize("number", [int, float])
def test_non_metric_64_points_same_message(tmp_path, capsys, number):
    # points on a line, one pair moved too far apart
    n = 64
    dist = [[number(abs(u - v)) for v in range(n)] for u in range(n)]
    dist[3][40] = dist[40][3] = number(100)
    path = tmp_path / "bad64.json"
    path.write_text(json.dumps({"k": 2, "symmetric": True, "dist": dist}))
    first = reference.validate_metric(Instance(dist, k=2))[0]
    code, out, err = run(capsys, "certify", "--input", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: not a valid metric, e.g. {first}\n"


@pytest.mark.parametrize("argv", [
    ("certify",),
    ("solve", "--method", "lp"),
    ("solve", "--method", "mstdp", "--objective", "kmedian"),
])
def test_timing_parts_add_up_to_at_most_total(tmp_path, capsys, argv):
    path = tmp_path / "inst.json"
    run(capsys, "generate", "--n", "24", "--k", "3", "--seed", "2", "--out", str(path))
    code, out, _ = run(capsys, *argv, "--input", str(path))
    assert code == 0
    timing = json.loads(out)["timing"]
    assert set(timing) == {"load", "validate", "seconds", "total"}
    assert min(timing.values()) >= 0
    assert timing["load"] + timing["validate"] + timing["seconds"] <= timing["total"]


def test_points_euclidean_input(tmp_path, capsys):
    path = tmp_path / "pts.json"
    pts = [[0, 0], [1, 0], [10, 0], [11, 0]]
    path.write_text(json.dumps({"points": pts, "metric": "euclidean", "k": 2}))
    code, out, _ = run(capsys, "solve", "--input", str(path), "--method", "oracle",
                       "--objective", "kmedian")
    assert code == 0
    assert json.loads(out)["cost"] == pytest.approx(2.0)


def test_points_manhattan_integer_input_stays_exact(tmp_path, capsys):
    path = tmp_path / "pts.json"
    pts = [[0, 0], [1, 0], [10, 0], [11, 0]]
    path.write_text(json.dumps({"points": pts, "metric": "manhattan", "k": 2}))
    inst, _ = load_instance_file(str(path), exact=False)
    assert inst.exact
    code, out, _ = run(capsys, "solve", "--input", str(path), "--method", "lp")
    assert code == 0
    assert json.loads(out)["verdict"] == "OPTIMAL"


COORDINATES = {
    "int": st.integers(-50, 50),
    # written as "p/q" strings, which only --exact reads as numbers
    "fraction": st.fractions(-50, 50, max_denominator=12).map(str),
    # some integral, so that a file may hold only integer-valued floats
    "float": st.one_of(st.integers(-50, 50).map(float),
                       st.floats(-50, 50, allow_nan=False).map(lambda x: round(x, 3))),
}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=st.data(),
    kind=st.sampled_from(tuple(COORDINATES)),
    exact=st.booleans(),
    dim=st.integers(1, 3),
)
def test_manhattan_matches_the_scalar_reference(tmp_path, data, kind, exact, dim):
    exact = exact or kind == "fraction"
    points = data.draw(st.lists(st.tuples(*[COORDINATES[kind]] * dim),
                                min_size=1, max_size=7, unique=True))
    path = tmp_path / "pts.json"
    text = json.dumps({"points": points, "metric": "manhattan", "k": 1})
    path.write_text(text)
    parsed = json.loads(text, parse_float=Fraction if exact else float)["points"]
    want = reference.manhattan(parsed, exact)
    got = load_instance_file(str(path), exact)[0].dist
    assert [[(type(x), x) for x in row] for row in got] == \
        [[(type(x), x) for x in row] for row in want]


def test_manhattan_keeps_ints_beyond_int64_exact(tmp_path):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"points": [[0], [2**62], [-(2**62) - 1]],
                                "metric": "manhattan", "k": 1}))
    inst, _ = load_instance_file(str(path), exact=False)
    assert inst.dist == ((0, 2**62, 2**62 + 1), (2**62, 0, 2**63 + 1), (2**62 + 1, 2**63 + 1, 0))
    assert all(type(x) is int for row in inst.dist for x in row)


@pytest.mark.parametrize("text, message", [
    ('{"k": 1, "symmetric": true, "dist": [[0, NaN, 2], [NaN, 0, 3], [2, 3, 0]]}',
     "NaN is not a JSON number"),
    ('{"k": 1, "metric": "manhattan", "points": [[0, 1], [Infinity, 2]]}',
     "Infinity is not a JSON number"),
    ('{"k": 1, "points": [[0, -Infinity], [1, 2]]}', "-Infinity is not a JSON number"),
    # a literal that float() overflows to infinity
    ('{"k": 1, "metric": "manhattan", "points": [[0], [1e999]]}', "Infinity"),
    ('{"k": 1, "symmetric": true, "dist": [[0, 1e999], [1e999, 0]]}',
     "1e999 overflows to Infinity as a float"),
    ('{"k": 1, "symmetric": true, "dist": [[0, -1e999], [-1e999, 0]]}',
     "-1e999 overflows to -Infinity as a float"),
    # Euclidean distances are floats: a coordinate past the float range, or
    # a difference or square that overflows, has no distance to give
    ('{"k": 1, "points": [[1%s], [0]]}' % ("0" * 400), '"points" is too large'),
    ('{"k": 1, "points": [[1e308], [-1e308]]}', '"points" is too large'),
    ('{"k": 1, "points": [[0, 1e200], [0, 0]]}', '"points" is too large'),
], ids=["nan-dist", "infinity-points", "minus-infinity-points", "overflow-points",
        "overflow-dist", "minus-overflow-dist", "euclidean-int-past-float",
        "euclidean-difference-overflows", "euclidean-square-overflows"])
@pytest.mark.filterwarnings("error")  # numpy's overflow RuntimeWarning fails the test
def test_non_finite_numbers_are_rejected(tmp_path, capsys, text, message):
    path = tmp_path / "nan.json"
    path.write_text(text)
    code, out, err = run(capsys, "certify", "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: ")
    assert message in err


@pytest.mark.parametrize("field", ["dist", "points"])
def test_rational_string_past_the_float_range_needs_exact(tmp_path, capsys, field):
    # without --exact the report prints a Fraction as a float, which 1e400
    # overflows; under --exact it is printed exactly
    big = "1e400"
    if field == "dist":
        doc = {"k": 1, "symmetric": True, "dist": [[0, big], [big, 0]]}
    else:
        doc = {"k": 1, "metric": "manhattan", "points": [[0], [big]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "certify", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == (f'error: {path}: "{field}" must lie within the float range without '
                   f'--exact, got "{big}"\n')
    code, out, _ = run(capsys, "certify", "--input", str(path), "--exact")
    assert code == 0
    assert Fraction(json.loads(out)["radius"]) == 10**400


def test_overflowing_float_literal_is_echoed_cut(tmp_path, capsys):
    literal = "1" + "0" * 4399 + ".0"
    path = tmp_path / "long.json"
    path.write_text('{"k": 1, "symmetric": true, "dist": [[0, %s], [%s, 0]]}' % (literal, literal))
    code, out, err = run(capsys, "certify", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == (f"error: {path}: {literal[:20]}...{literal[-10:]} (4402 characters) "
                   "overflows to Infinity as a float\n")
    assert len(err) < len(str(path)) + 120


def test_unbounded_float_probe_exits_5(tmp_path, capsys, monkeypatch):
    from resilient_cluster import lp
    from resilient_cluster.simplex import UNBOUNDED, SimplexResult

    path = tmp_path / "gap.json"
    path.write_text(json.dumps(_gap_instance_doc()))
    monkeypatch.setattr(lp, "maximize", lambda c, A, b: SimplexResult(UNBOUNDED, (), None, (), ()))
    code, out, err = run(capsys, "certify", "--input", str(path))
    assert (code, out) == (5, "")
    assert err.startswith("error: the float solve could not be confirmed exactly at radius ")
    assert err.endswith(": the float solve came back unbounded, but the reduced LP is bounded\n")


def test_exact_mode_roundtrips_rationals(tmp_path, capsys):
    path = tmp_path / "frac.json"
    dist = [["0", "3/2"], ["3/2", "0"]]
    path.write_text(json.dumps({"k": 1, "dist": dist, "symmetric": True}))
    inst, _ = load_instance_file(str(path), exact=True)
    assert inst.exact
    assert inst.dist[0][1] == Fraction(3, 2)
    code, out, _ = run(capsys, "solve", "--input", str(path), "--method", "oracle", "--exact")
    assert code == 0
    report = json.loads(out)
    assert report["cost"] == "3/2"
    assert Fraction(report["cost"]) == Fraction(3, 2)


@pytest.mark.parametrize("dist", [
    [[0, "3/2"], ["3/2", 0]],
    [["0", 1], [1, 0]],
    [[0, "x"], 5],
    [[0, 1], 5],
    [[False, True], [1, False]],
    [[0, 1.5], [1.5, 0]],
    ["01", "10"],
    [[0, 1, 2], [1, 0]],
    7,
    [[0, None], [None, 0]],
    [{"0": 5, "1": 7}, {"1": 0, "0": 9}],
    [[0, "1/0"], ["1/0", 0]],
    [[0, "abc"], ["abc", 0]],
    [[0, "-3/0"], [None, 0]],
])
def test_matrix_parse_matches_the_per_entry_reference(tmp_path, dist):
    path = tmp_path / "m.json"
    text = json.dumps({"k": 1, "symmetric": True, "dist": dist})
    path.write_text(text)

    def typed(inst):
        return [[(type(x), x) for x in row] for row in inst.dist]

    # both modes, looped so that each matrix keeps its test id; under
    # --exact the reference reads a float literal as the Fraction it denotes
    for exact in (False, True):
        parsed = json.loads(text, parse_float=Fraction if exact else float)["dist"]
        try:
            expected = typed(Instance(reference.parse_matrix(parsed), 1))
        except (TypeError, ValueError) as e:
            expected = f"{path}: {e}"
        try:
            got = typed(load_instance_file(str(path), exact)[0])
        except CliError as e:
            assert e.code == 1
            got = str(e)
        assert got == expected, exact
    # a matrix, or a row of one, that is not a JSON array (a number, a
    # string, an object) exits 1 naming the field
    if type(dist) is not list or any(type(row) is not list for row in dist):
        assert got == f'{path}: "dist" must be a JSON array of JSON arrays'


def test_exact_is_set_by_the_flag_alone(tmp_path, capsys, monkeypatch):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"k": 1, "dist": [["0", "1/3"], ["1/3", "0"]]}))
    code, out, _ = run(capsys, "solve", "--input", str(path), "--method", "oracle", "--exact")
    assert code == 0
    assert json.loads(out)["cost"] == "1/3"
    # no environment variable stands in for --exact
    monkeypatch.setenv("RESILIENT_CLUSTER_EXACT", "1")
    code, out, _ = run(capsys, "solve", "--input", str(path), "--method", "oracle")
    assert code == 0
    assert json.loads(out)["cost"] == 1 / 3


LINE4 = {"k": 2, "dist": [[0, 1, 10, 11], [1, 0, 9, 10], [10, 9, 0, 1], [11, 10, 1, 0]],
         "planted": {"assignment": [0, 0, 2, 2], "centers": [0, 2]}}
# more digits than Python converts to an int by default; the string "@long"
# is written into a file as this JSON integer literal
LONG = "1" + "0" * 5000
# float literals whose fractions have a numerator ("@huge") or a denominator
# ("@tiny") of more digits than that, written into a file the same way, and
# one past the float range ("@e400")
LITERALS = {"@long": LONG, "@huge": "1e4400", "@tiny": "1e-4400", "@mantissa": LONG + ".5",
            "@e400": "1e400"}


@pytest.mark.parametrize("field, value, exact", [
    ("k", 2.5, False),
    ("k", 2.5, True),
    ("k", True, False),
    ("k", "2", False),
    ("z", 0.9, False),
    ("z", False, False),
    ("n", 4.0, False),
    ("symmetric", "false", False),
    ("symmetric", 1, False),
    ("planted.assignment", [0, 0, 2, 2.0], False),
    ("planted.centers", [0, True], False),
    ("dist", [[0, True, 10, 11], [True, 0, 9, 10], [10, 9, 0, 1], [11, 10, 1, 0]], False),
    ("dist", [[0, None, 10, 11], [None, 0, 9, 10], [10, 9, 0, 1], [11, 10, 1, 0]], False),
    ("dist", [[0, 1.0, 10, 11], [1.0, 0, 9, 10], [10, 9, 0, [1]], [11, 10, 1, 0]], True),
    ("points", ("euclidean", [[0], [True], [10], [11]]), False),
    ("points", ("manhattan", [[0], [1], [None], [11]]), False),
    ("points", ("manhattan", [[0], [1], [10], [False]]), True),
    ("dist", [[0, "1/0", 10, 11], ["1/0", 0, 9, 10], [10, 9, 0, 1], [11, 10, 1, 0]], False),
    ("dist", [[0, 1, 10, 11], [1, 0, 9, 10], [10, 9, 0, 1], [11, 10, 1, "abc"]], True),
    ("points", ("euclidean", [[0], [1], ["1/0"], [11]]), False),
    ("points", ("manhattan", [["abc"], [1], [10], [11]]), True),
    ("dist", 7, False),
    ("dist", ["0111", "1011", "1101", "1110"], False),
    ("dist", [{"0": 0}, [1, 0, 9, 10], [10, 9, 0, 1], [11, 10, 1, 0]], False),
    ("points", ("euclidean", "0123"), False),
    ("points", ("manhattan", [[0], "1", [10], [11]]), False),
    ("points", ("euclidean", []), False),
    ("points", ("manhattan", []), False),
    ("points", ("euclidean", [[0], [1, 2], [10], [11]]), False),
    ("points", ("manhattan", [[0], [1, 2], [10], [11]]), True),
    ("dist", [[0, "@long", 10, 11], ["@long", 0, 9, 10], [10, 9, 0, 1], [11, 10, 1, 0]], False),
    ("dist", [[0, 1, 10, 11], [1, 0, 9, 10], [10, 9, 0, 1], [11, 10, 1, "@long"]], True),
    ("dist", [[0, LONG, 10, 11], [LONG, 0, 9, 10], [10, 9, 0, 1], [11, 10, 1, 0]], False),
    ("points", ("manhattan", [[0], ["@long"], [10], [11]]), False),
    ("points", ("euclidean", [[0], [1], [LONG], [11]]), True),
    ("dist", [[0, "@huge", 10, 11], ["@huge", 0, 9, 10], [10, 9, 0, 1], [11, 10, 1, 0]], True),
    ("dist", [[0, 1, 10, 11], [1, 0, 9, 10], [10, 9, 0, "@tiny"], [11, 10, "@tiny", 0]], True),
    ("dist", [[0, "1e4400", 10, 11], ["1e4400", 0, 9, 10], [10, 9, 0, 1], [11, 10, 1, 0]],
     False),
    ("points", ("manhattan", [[0], ["@huge"], [10], [11]]), True),
    ("points", ("euclidean", [[0], [1], ["@tiny"], [11]]), True),
    ("points", ("manhattan", [[0], [1], [10], ["@mantissa"]]), True),
    ("k", "@e400", True),
    ("k", "@e400", False),
], ids=["k-float", "k-exact-rational", "k-bool", "k-string", "z-float", "z-bool", "n-float",
        "symmetric-string", "symmetric-int", "assignment-float", "centers-bool",
        "dist-bool", "dist-null", "dist-list-exact", "points-bool-euclidean",
        "points-null-manhattan", "points-bool-exact", "dist-zero-denominator",
        "dist-not-a-number-exact", "points-zero-denominator", "points-not-a-number-exact",
        "dist-number", "dist-string-rows",
        "dist-object-row", "points-string", "points-string-row", "points-empty-euclidean",
        "points-empty-manhattan", "points-ragged-euclidean", "points-ragged-exact",
        "dist-long-literal", "dist-long-literal-exact", "dist-long-string",
        "points-long-literal", "points-long-string-exact", "dist-long-numerator-exact",
        "dist-long-denominator-exact", "dist-long-rational-string",
        "points-long-numerator-exact", "points-long-denominator-exact",
        "points-long-mantissa-exact", "k-overflowing-float-exact", "k-overflowing-float"])
def test_instance_fields_must_have_their_json_type(tmp_path, capsys, field, value, exact):
    """k, z, n and the planted indices are JSON integers, never bools,
    symmetric is a JSON boolean, and every distance and coordinate is a JSON
    number or a rational string; anything else exits 1 naming the field and
    echoing at most a few dozen characters of the value."""
    doc = json.loads(json.dumps(LINE4))
    if field.startswith("planted."):
        doc["planted"][field.split(".")[1]] = value
    elif field == "points":
        del doc["dist"]
        doc["metric"], doc["points"] = value
    else:
        doc[field] = value
    path = tmp_path / "typed.json"
    text = json.dumps(doc)
    for mark, literal in LITERALS.items():
        text = text.replace(f'"{mark}"', literal)
    path.write_text(text)
    code, out, err = run(capsys, "certify", "--input", str(path), *(["--exact"] if exact else []))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: ") and f'"{field}" must be a JSON ' in err
    assert len(err) < len(f"error: {path}: ") + 200


def test_long_integer_before_a_syntax_error_reports_the_syntax_error(tmp_path, capsys):
    # the integer is past json's digit limit, so the first reading stops at
    # it; the error to report is the trailing comma after it
    text = '{"k": 1, "symmetric": true, "dist": [[0, %s], [%s, 0]], }' % (LONG, LONG)
    path = tmp_path / "trailing.json"
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text, parse_int=str)
    code, out, err = run(capsys, "certify", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == (f"error: {path}: malformed JSON at line {want.value.lineno}, "
                   f"column {want.value.colno}: {want.value.msg}\n")


def _refuse_far_exponents(monkeypatch):
    """Make every ``Fraction`` refuse a text with the exponent 99999999, whose
    power of ten would hold the reader for minutes."""
    real = Fraction.__new__

    def fraction(cls, x=0, *rest, **kwargs):
        if isinstance(x, str) and "99999999" in x:
            raise AssertionError(f"Fraction({x!r}) builds a power of ten of 10**8 digits")
        return real(cls, x, *rest, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", fraction)


@pytest.mark.parametrize("literal, exact", [
    ('"1e99999999"', False),
    ('"1e-99999999"', False),
    ('"-2.5E+99999999"', True),
    ("1e99999999", True),
    ("1e-99999999", True),
], ids=["string", "string-negative-exponent", "string-exact", "literal-exact",
        "literal-negative-exponent-exact"])
def test_a_far_exponent_is_rejected_before_its_power_is_built(tmp_path, capsys, monkeypatch,
                                                                literal, exact):
    _refuse_far_exponents(monkeypatch)
    path = tmp_path / "far.json"
    path.write_text('{"k": 1, "symmetric": true, "dist": [[0, %s], [%s, 0]]}' % (literal, literal))
    code, out, err = run(capsys, "certify", "--input", str(path), *(["--exact"] if exact else []))
    assert (code, out) == (1, "")
    assert err == (f'error: {path}: "dist" must be a JSON number of at most '
                   f"{sys.get_int_max_str_digits()} digits in its numerator and denominator, "
                   f"got {literal}\n")


@pytest.mark.parametrize("exact", [False, True])
def test_a_zero_mantissa_is_zero_whatever_its_exponent(tmp_path, monkeypatch, exact):
    _refuse_far_exponents(monkeypatch)

    def load(zeros):
        path = tmp_path / "zero.json"
        path.write_text('{"k": 1, "metric": "manhattan", "points": [[%s, 1], [2, %s], [%s, 3]]}'
                        % zeros)
        return [[(type(x), x) for x in row] for row in load_instance_file(str(path), exact)[0].dist]

    far = load(('"0e99999999"', '"-0.00E-99999999"', "0e99999999"))
    assert far == load(('"0"', '"0"', "0.0" if exact else "0e0"))


def test_an_exponent_under_no_digit_limit_is_read_in_full(tmp_path, monkeypatch):
    # a limit of 0 lifts the bound: the power of ten is built as asked
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    path = tmp_path / "big.json"
    path.write_text('{"k": 1, "dist": [[0, "1e5000"], ["1e5000", 0]]}')
    assert load_instance_file(str(path), True)[0].dist[0][1] == 10**5000


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("doc", [
    dict(LINE4, planted={"assignment": [0, 0, 1, 1], "centers": [0, 2]}),
    {"k": 1, "symmetric": False, "dist": [[0, 1.5, "7/2"], [1.5, 0, 2], [2.5, 2, 0]]},
    {"k": 1, "dist": [[0, 2**63 + 1], [2**63 + 1, 0]]},
    {"k": 2, "z": 1, "n": 3, "dist": [[0.0, 0.1, 1e-7], [0.1, 0.0, 0.1], [1e-7, 0.1, 0.0]]},
    {"k": 1, "metric": "manhattan", "points": [[0, 1.5], [-2, "1/3"], [3.0, 4]]},
    {"k": 1, "points": [[0, 1], [3, 5]]},
], ids=["int", "mixed-asymmetric", "past-int64", "float", "manhattan", "euclidean"])
def test_the_second_reading_reads_what_the_first_does(tmp_path, doc, exact):
    """An integer past the digit limit in a field the loader does not read
    sends the loader to its second reading, which keeps every number literal
    as text; the instance, its number types and the planted clustering come
    out as the first reading gives them."""
    def load(text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        inst, planted = load_instance_file(str(path), exact)
        return [[(type(x), x) for x in row] for row in inst.dist], inst.exact, inst.symmetric, planted

    text = json.dumps(dict(doc, generator={"seed": "@long"}))
    assert load(text.replace('"@long"', LONG)) == load(text.replace('"@long"', "1"))


def test_solve_lp_not_resilient_exit_3(tmp_path, capsys):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(_gap_instance_doc()))
    code, out, _ = run(capsys, "solve", "--input", str(path), "--method", "lp")
    assert code == 3
    report = json.loads(out)
    assert report["verdict"] == "NOT_2PR"
    assert report["lp"]["y"] is not None


@pytest.mark.parametrize("instance", ["planted", "gap"])
def test_solve_lp_reports_what_certify_reports(tmp_path, capsys, instance):
    path = tmp_path / "inst.json"
    if instance == "planted":
        run(capsys, "generate", "--n", "12", "--k", "3", "--seed", "1", "--out", str(path))
    else:
        path.write_text(json.dumps(_gap_instance_doc()))
    solve_code, solve_out, _ = run(capsys, "solve", "--input", str(path), "--method", "lp")
    certify_code, certify_out, _ = run(capsys, "certify", "--input", str(path))
    solved, certified = json.loads(solve_out), json.loads(certify_out)
    assert solve_code == certify_code == (0 if instance == "planted" else 3)
    assert (solved.pop("method"), solved.pop("objective")) == ("lp", "kcenter")
    del solved["timing"], certified["timing"]
    assert solved == certified
    assert {"route", "packing"} <= set(solved)
    if instance == "gap":
        assert "integral" in solved["lp"]


def test_solve_mstdp_outliers(tmp_path, capsys):
    coords = [0, 1, 10, 11, 100]
    dist = [[abs(a - b) for b in coords] for a in coords]
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"k": 2, "z": 1, "dist": dist, "symmetric": True}))
    code, out, _ = run(capsys, "solve", "--input", str(path), "--method", "mstdp",
                       "--objective", "kmedian")
    assert code == 0
    report = json.loads(out)
    assert report["cost"] == 2
    assert report["clustering"]["outliers"] == [4]


def test_batch_directory(tmp_path, capsys):
    for seed in (1, 2):
        run(capsys, "generate", "--n", "10", "--k", "2", "--seed", str(seed),
            "--out", str(tmp_path / f"i{seed}.json"))
    code, out, _ = run(capsys, "certify", "--input", str(tmp_path))
    assert code == 0
    assert out.count('"verdict"') == 2  # one report per file


def test_batch_reports_the_good_file_next_to_an_unparsable_one(tmp_path, capsys):
    run(capsys, "generate", "--n", "10", "--k", "2", "--seed", "1",
        "--out", str(tmp_path / "good.json"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k": 1, "symmetric": True, "dist": [[0, "1/0"], ["1/0", 0]]}))
    code, out, err = run(capsys, "certify", "--input", str(tmp_path))
    assert code == 1
    assert json.loads(out)["verdict"] == "OPTIMAL"
    assert err == (f'error: {bad}: "dist" must be a JSON number or a rational string in '
                   'every entry, got "1/0"\n')


@pytest.mark.parametrize("sigma", ["1e99999999", "2.5E-99999999"])
def test_generate_sigma_with_a_far_exponent_exits_1_at_once(tmp_path, capsys, monkeypatch,
                                                             sigma):
    _refuse_far_exponents(monkeypatch)
    out = tmp_path / "x.json"
    code, _, err = run(capsys, "generate", "--n", "10", "--k", "2", "--sigma", sigma,
                       "--out", str(out))
    assert code == 1
    assert err == (f"error: --sigma: {sigma!r} has more than {sys.get_int_max_str_digits()} "
                   "digits in its numerator or denominator\n")
    assert not out.exists()


@pytest.mark.parametrize("p", ["1e99999999", "1e-99999999"])
def test_lp_objective_with_a_far_exponent_exits_1_at_once(tmp_path, capsys, monkeypatch, p):
    _refuse_far_exponents(monkeypatch)
    path = tmp_path / "l.json"
    path.write_text(json.dumps({"k": 1, "dist": [[0, 1], [1, 0]]}))
    code, out, err = run(capsys, "solve", "--input", str(path), "--method", "oracle",
                         "--objective", f"lp:{p}")
    assert (code, out) == (1, "")
    assert err == (f"error: lp:P: {p!r} has more than {sys.get_int_max_str_digits()} "
                   "digits in its numerator or denominator\n")


def test_ragged_matrix_without_symmetric_exits_1(tmp_path, capsys):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"k": 1, "dist": [[0, 1], [1, 0], [1, 2]]}))
    code, out, err = run(capsys, "certify", "--input", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: dist must be a nonempty square matrix\n"


@pytest.mark.parametrize("method", ["oracle", "mstdp"])
def test_float_sums_past_the_float_range_exit_1(tmp_path, capsys, method):
    """Every k-median cost of three points 1e308 apart with one center is
    2e308, past the float range: both outlier solvers say so, and nothing
    else."""
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"k": 1, "dist": [[0 if u == v else 1e308 for v in range(3)]
                                                 for u in range(3)]}))
    code, out, err = run(capsys, "solve", "--input", str(path), "--method", method,
                         "--objective", "kmedian")
    assert (code, out) == (1, "")
    assert err == "error: every clustering's kmedian cost overflows a float\n"


@pytest.mark.parametrize("method", ["oracle", "mstdp"])
@pytest.mark.filterwarnings("error")  # numpy's overflow RuntimeWarning fails the test
def test_float_terms_past_the_float_range_exit_1_unwarned(tmp_path, capsys, method):
    """Every k-means term of three points 1e200 apart is 1e400, past the
    float range: the product that forms it overflows without a warning, and
    both outlier solvers report the overflow alone."""
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"k": 1, "dist": [[0 if u == v else 1e200 for v in range(3)]
                                                 for u in range(3)]}))
    code, out, err = run(capsys, "solve", "--input", str(path), "--method", method,
                         "--objective", "kmeans")
    assert (code, out) == (1, "")
    assert err == "error: every clustering's kmeans cost overflows a float\n"


@pytest.mark.parametrize("sigma", ["1/0", "abc"])
def test_generate_sigma_must_be_a_number(tmp_path, capsys, sigma):
    out = tmp_path / "x.json"
    code, _, err = run(capsys, "generate", "--n", "10", "--k", "2", "--sigma", sigma,
                       "--out", str(out))
    assert code == 1
    assert err == f"error: --sigma must be a number or a rational string, got {sigma!r}\n"
    assert not out.exists()


def test_gonzalez_requires_kcenter(tmp_path, capsys):
    path = tmp_path / "i.json"
    run(capsys, "generate", "--n", "10", "--k", "2", "--seed", "1", "--out", str(path))
    code, _, err = run(capsys, "solve", "--input", str(path), "--method", "gonzalez",
                       "--objective", "kmedian")
    assert code == 1


def test_lp_requires_kcenter(tmp_path, capsys):
    path = tmp_path / "i.json"
    run(capsys, "generate", "--n", "10", "--k", "2", "--seed", "1", "--out", str(path))
    code, out, err = run(capsys, "solve", "--input", str(path), "--method", "lp",
                         "--objective", "kmedian")
    assert (code, out) == (1, "")
    assert err == "error: --method lp solves the kcenter objective only\n"


@pytest.mark.parametrize("method", ["gonzalez", "hs"])
def test_two_approximations_solve_to_the_certified_partition(tmp_path, capsys, method):
    path = tmp_path / "inst.json"
    run(capsys, "generate", "--n", "12", "--k", "3", "--seed", "7", "--out", str(path))
    code, out, _ = run(capsys, "solve", "--input", str(path), "--method", method)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "SOLVED" and report["cost"] == report["radius"]
    _, certified, _ = run(capsys, "certify", "--input", str(path))
    got, want = (Clustering(tuple(c["assignment"]), tuple(c["centers"])).partition_key()
                 for c in (report["clustering"], json.loads(certified)["clustering"]))
    assert got == want


def test_oracle_past_its_work_cap(tmp_path, capsys):
    # C(60, 6), about 5.0e7 center sets, is past the brute force's cap
    path = tmp_path / "inst.json"
    run(capsys, "generate", "--n", "60", "--k", "6", "--seed", "1", "--out", str(path))
    code, out, err = run(capsys, "solve", "--input", str(path), "--method", "oracle")
    assert (code, out) == (2, "") and err.startswith("error: ")
    code, out, _ = run(capsys, "certify", "--input", str(path), "--falsify")
    assert code == 0
    assert json.loads(out)["falsifier"] == {"skipped": "instance too large for brute force"}


def test_oracle_counts_center_sets_not_outlier_sets(tmp_path, capsys):
    # C(60, 2) = 1770 center sets, each dropping its 3 farthest points; the
    # 1770 * C(58, 3), about 5.5e7, outlier choices are never enumerated
    path = tmp_path / "inst.json"
    run(capsys, "generate", "--n", "60", "--k", "2", "--z", "3", "--mode", "outlier",
        "--seed", "1", "--out", str(path))
    planted = json.loads(path.read_text())["planted"]
    code, out, err = run(capsys, "solve", "--input", str(path), "--method", "oracle",
                         "--objective", "kmedian")
    assert (code, err) == (0, "")
    got, want = (Clustering(tuple(c["assignment"]), tuple(c["centers"])).partition_key()
                 for c in (json.loads(out)["clustering"], planted))
    assert got == want
    code, out, _ = run(capsys, "certify", "--input", str(path), "--falsify")
    assert code == 0
    assert json.loads(out)["falsifier"]["verdict"] == "resilient-unrefuted"


def test_asymmetric_file_defaults_to_asym_kc(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "generate", "--n", "12", "--k", "3", "--mode", "asymmetric", "--seed", "1",
        "--out", str(path))
    code, out, _ = run(capsys, "certify", "--input", str(path))
    assert code == 0
    assert json.loads(out)["formulation"] == "asym-kc"


@pytest.mark.parametrize("kind", ["missing-file", "empty-directory"])
def test_missing_input_exit_1(tmp_path, capsys, kind):
    path = tmp_path / "absent.json" if kind == "missing-file" else tmp_path
    code, out, err = run(capsys, "certify", "--input", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read " if kind == "missing-file"
                          else "error: no *.json files in ")


def test_lp_norm_objective_via_cli(tmp_path, capsys):
    coords = [0, 1, 10, 11]
    dist = [[abs(a - b) for b in coords] for a in coords]
    path = tmp_path / "l.json"
    path.write_text(json.dumps({"k": 2, "dist": dist, "symmetric": True}))
    code, out, _ = run(capsys, "solve", "--input", str(path), "--method", "mstdp",
                       "--objective", "lp:3")
    assert code == 0
    assert json.loads(out)["cost"] == 2  # 1^3 + 1^3


@pytest.mark.parametrize("objective", ["lp:1/0", "lp:abc", "lp:-1"])
def test_bad_lp_objective_exits_1(tmp_path, capsys, objective):
    path = tmp_path / "i.json"
    run(capsys, "generate", "--n", "6", "--k", "2", "--seed", "1", "--out", str(path))
    code, out, err = run(capsys, "solve", "--input", str(path), "--method", "oracle",
                         "--objective", objective)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_batch_parallel_jobs(tmp_path, capsys):
    for seed in (1, 2, 3):
        run(capsys, "generate", "--n", "10", "--k", "2", "--seed", str(seed),
            "--out", str(tmp_path / f"i{seed}.json"))
    code, out, _ = run(capsys, "certify", "--input", str(tmp_path), "--jobs", "2")
    assert code == 0
    assert out.count('"verdict"') == 3


def test_batch_starts_at_most_one_worker_per_file(tmp_path, capsys, monkeypatch):
    """--jobs 64 on two files asks the pool for two workers; a fake pool
    records that and maps in-process, so no large pool is started."""
    import multiprocessing

    asked = []

    class FakePool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, tasks):
            return [func(*t) for t in tasks]

    for seed in (1, 2):
        run(capsys, "generate", "--n", "10", "--k", "2", "--seed", str(seed),
            "--out", str(tmp_path / f"i{seed}.json"))
    serial = run(capsys, "certify", "--input", str(tmp_path), "--jobs", "1")
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    parallel = run(capsys, "certify", "--input", str(tmp_path), "--jobs", "64")
    assert asked == [2]
    assert serial[0] == parallel[0] == 0
    # the reports match with their timing masked
    serial, parallel = ([re.sub(r'"(load|seconds|total|validate)": [0-9.e-]+', "", part)
                         for part in result] for result in (serial[1:], parallel[1:]))
    assert parallel == serial
