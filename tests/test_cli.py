"""Model verification and the command-line surface."""

import contextlib
import io
import json
import multiprocessing
import os
import re
import shlex
import tempfile
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from orthantwalks import catalog as catalog_mod
from orthantwalks.asympt import asympt_closed
from orthantwalks.cli import COMMAND_FLAGS, SHARED_FLAGS, build_parser, main
from orthantwalks.stepset import SHORTHAND_2D, build_stepset, load_stepset
from orthantwalks.verify import verify_model


# ------------------------------------------------------------ verify_model

def test_verify_negative_drift_passes():
    s = build_stepset(2, ["N", "SE", "S", "SW"])
    rep = verify_model(s, n_max=512)
    assert rep.status == "pass"
    assert rep.exact_checks["diagonal_vs_oracle"]["pass"]
    assert rep.exact_checks["positive_part"]["pass"]
    comp = rep.comparisons["engine_vs_empirical"]
    assert comp["log_rho_err"] < 1e-2
    assert all(v < 0.05 for v in comp["constant_rel_errs"].values())


def test_verify_periodic_crossing_model_passes():
    # its second crossing point has a vanishing numerator; the engine's
    # prediction must still exist and agree with the fit
    s = build_stepset(2, [("NE", 2), ("NW", 2), ("SE", 1), ("SW", 1)])
    rep = verify_model(s, n_max=512)
    assert rep.status == "pass"
    assert rep.predicted is not None


def test_verify_no_symmetry_model_is_partial():
    s = build_stepset(2, ["N", "W", "SE"])
    rep = verify_model(s, n_max=512)
    assert rep.status == "partial"
    assert abs(rep.empirical["alpha"] + 1.5) < 0.05
    assert "catalog_vs_empirical" in rep.comparisons


def test_verify_zero_drift_non_symmetric_conjectural():
    steps = [((1, 0), 1), ((-1, 0), 1),
             ((1, 1), 2), ((-1, 1), 2), ((0, 1), 1),
             ((1, -1), 1), ((-1, -1), 1), ((0, -1), 3)]
    s = build_stepset(2, steps)
    rep = verify_model(s, n_max=256)
    assert rep.status == "partial"
    assert any("conjectural" in n for n in rep.notes)
    assert rep.empirical["rho"] > 0


# -------------------------------------------------------------------- CLI

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_count_json(capsys):
    code, out = run_cli(capsys, "count", "--model", "N,S,E,W", "--n", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "2"
    assert [r["count"] for r in doc["rows"]] == ["1", "2", "6", "18", "60", "200"]


def test_cli_count_origin_filter(capsys):
    code, out = run_cli(capsys, "count", "--model", "N,S,E,W", "--n", "4",
                        "--endpoint", "origin")
    doc = json.loads(out)
    assert [r["count"] for r in doc["rows"]] == ["1", "0", "2", "0", "10"]


def test_cli_diagonal_and_orbitsum(capsys):
    code, out = run_cli(capsys, "diagonal", "--model", "NE,NW,S", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert [r["coefficient"] for r in doc["rows"]] == ["1", "1", "3", "7"]
    code, out = run_cli(capsys, "orbitsum", "--model", "NE,NW,S")
    assert code == 0
    assert "numerator" in json.loads(out)


def test_cli_critical_and_asympt(capsys):
    code, out = run_cli(capsys, "critical", "--model", "N,SE,S,SW")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 2 and all(r["critical_ok"] for r in rows)
    code, out = run_cli(capsys, "asympt", "--model", "N,SE,S,SW")
    assert code == 0
    doc = json.loads(out)
    assert doc["period"] == 2 and doc["rate_modulus_exact"] == "2*sqrt(3)"


def _points(doc):
    return [(r["stratum"], r["rate_exact"], r["critical_ok"]) for r in doc["rows"]]


# what each subcommand decides, apart from the digits it prints
LOW_PRECISION_VERDICTS = [
    (["count", "--model", "N,SE,S,SW", "--n", "30"], lambda doc: doc),
    (["critical", "--model", "N,SE,S,SW"], _points),
    (["critical", "--model", "NE,NW,S"], _points),
    (["asympt", "--model", "N,SE,S,SW", "--endpoint", "origin"],
     lambda doc: [doc[k] for k in ("period", "alpha", "rate_modulus_exact", "partial")]
     + [len(doc["terms"])]),
    (["catalog", "--check", "--table", "both", "--modes", "symbolic"],
     lambda doc: doc["rows"]),
]


@pytest.mark.parametrize("bits", ["8", "64"])
def test_cli_low_precision_keeps_the_verdicts(capsys, bits):
    # every numeric zero test follows the working precision, so a low one
    # finds every point critical and folds every expansion as 192 bits do
    for argv, verdict in LOW_PRECISION_VERDICTS:
        code, want = run_cli(capsys, *argv)
        assert code == 0 and run_cli(capsys, *argv, "--precision-bits", "192") == (0, want)
        code, got = run_cli(capsys, *argv, "--precision-bits", bits)
        assert code == 0 and verdict(json.loads(got)) == verdict(json.loads(want)), argv
        if verdict is _points:
            assert all(ok for _, _, ok in _points(json.loads(got)))


@pytest.mark.parametrize("argv", [
    ["asympt", "--model", "N,SE,S,SW", "--order", "0"],
    ["asympt", "--model", "N,SE,S,SW", "--order", "-2"],
    ["asympt", "--model", "N,SE,S,SW", "--digits", "0"],
    ["asympt", "--model", "N,SE,S,SW", "--digits", "-5"],
    ["critical", "--model", "N,SE,S,SW", "--digits", "0"],
    ["critical", "--model", "N,SE,S,SW", "--precision-bits", "0"],
    ["count", "--model", "N,S,E,W", "--precision-bits", "-5"],
    ["catalog", "--check", "--modes", "symbolic", "--n", "-1"],
    ["diagonal", "--model", "NE,NW,S", "--n", "-3"],
    ["count", "--model", "N,S,E,W", "--n", "-1"],
    ["verify", "--model", "N,SE,S,SW", "--n", "-1"],
    # the fitter's shortest series, refused before any exact or engine work
    ["verify", "--model", "N,SE,S,SW", "--n", "63"],
    ["verify", "--model", "N,SE,S,SW", "--n", "71"],
    ["catalog", "--check", "--n", "10"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_cli_numeric_flag_floors(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {argv[-2]} must be at least")


def test_cli_float_count_prints_plain_floats(capsys):
    code, out = run_cli(capsys, "count", "--model", "N,S,E,W", "--mode", "float",
                        "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,count,log_count"
    counts = [float(line.split(",")[1]) for line in lines[1:]]
    assert counts == pytest.approx([1, 2, 6], rel=1e-12)
    assert "np." not in out


def test_cli_float_count_reads_whole_counts_exactly(capsys):
    # u_n = s_n / 4^n is exact here, and so is its product with the power 4^n
    code, out = run_cli(capsys, "count", "--model", "N,S,E,W", "--mode", "float",
                        "--n", "3", "--format", "csv")
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["1.0", "2.0", "6.0", "18.0"]


def test_cli_float_count_past_the_float_range(capsys):
    # 8 steps: the counts pass 1.8e308 near n = 340, where log_count still holds them
    code, out = run_cli(capsys, "count", "--model", "N,S,E,W,NE,NW,SE,SW",
                        "--mode", "float", "--n", "400")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert Decimal(rows[400]["count"]).adjusted() == 358
    for row in rows[::20] + rows[-5:]:
        count = Decimal(row["count"])
        assert abs(float(count.ln()) - float(row["log_count"])) < 1e-10
    # odd n at the origin: a structural zero where the scale 4^n overflows
    code, out = run_cli(capsys, "count", "--model", "N,S,E,W", "--endpoint", "origin",
                        "--mode", "float", "--n", "520")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert (rows[519]["count"], rows[519]["log_count"]) == ("0.0", "-inf")
    assert Decimal(rows[520]["count"]).adjusted() == 305


def test_cli_catalog_pass_error_for_any_thread_count(capsys, monkeypatch):
    # a pass that a worker process refuses ends the check as one in-process
    # does: with 1 CPU the passes run here, with 2 in a pool of 2
    outcomes = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        code = main(["catalog", "--check", "--n", "9000", "--modes", "empirical"])
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
        assert multiprocessing.active_children() == []
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:2] == (1, "")
    assert "exceeds the limit" in outcomes[0][2]


@pytest.mark.parametrize("modes", ["foo", "", ",", "symbolic,foo", "symbolic,,empirical"])
def test_cli_catalog_rejects_unknown_modes(capsys, modes):
    assert main(["catalog", "--check", "--modes", modes]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --modes")


def test_cli_file_errors_exit_1_without_traceback(tmp_path, capsys):
    # a directory as the model, an --out in a missing directory, and an --out
    # that is a directory: each is an error line and exit 1, leaving no .tmp
    for argv in (["count", "--model", str(tmp_path), "--n", "3"],
                 ["count", "--model", "N,S,E,W", "--n", "3",
                  "--out", str(tmp_path / "missing" / "x.json")],
                 ["count", "--model", "N,S,E,W", "--n", "3", "--out", str(tmp_path)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert list(tmp_path.parent.glob("*.tmp")) == []
    assert list(tmp_path.rglob("*")) == []


def _huge_n_model(tmp_path, weight):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dimension": 2, "steps": [
        {"vector": "N", "weight": weight}, "S", "E", "W"]}))
    return path


@pytest.mark.parametrize("weight, argv, message", [
    ("1e400", ["count", "--mode", "float"], "too large to convert to float"),
], ids=["float overflow"])
def test_cli_numeric_failures_exit_1_without_traceback(tmp_path, capsys, weight, argv,
                                                       message):
    # a weight past the float range overflows the float DP
    assert main(argv + ["--model", str(_huge_n_model(tmp_path, weight))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert message in captured.err


def test_cli_verify_flat_hessian_reports_the_engine(tmp_path, capsys):
    # the engine predicts alpha -1/2; at n <= 512 almost every walk is all-N,
    # so the blind fit is pre-asymptotic (alpha near 0, yet it says converged)
    # and the comparison fails
    code, out = run_cli(capsys, "verify", "--model", str(_huge_n_model(tmp_path, "1e40")))
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "fail" and rep["notes"] == []
    assert rep["exact_checks"]["diagonal_vs_oracle"]["pass"]
    assert rep["exact_checks"]["positive_part"]["pass"]
    assert rep["predicted"]["alpha"] == "-1/2"
    assert rep["predicted"]["constants"] == ["5.641895835477563e+19"]
    assert rep["empirical"]["converged"]
    assert rep["comparisons"]["engine_vs_empirical"]["alpha_err"] > 0.49


@pytest.mark.parametrize("bits", [192, 300])
def test_cli_asympt_flat_hessian_matches_closed_form(tmp_path, capsys, bits):
    # the Hessian entry along E-W is about 2e-40, a positive real the engine
    # takes as it is: at the default precision and above it meets the closed form
    path = _huge_n_model(tmp_path, "1e40")
    code, out = run_cli(capsys, "asympt", "--model", str(path), "--precision-bits", str(bits))
    assert code == 0
    rep = json.loads(out)
    closed = asympt_closed(load_stepset(str(path)), prec=bits).periodic
    assert rep["alpha"] == str(closed.alpha) == "-1/2"
    assert rep["rate_modulus_exact"] == closed.rate_modulus_exact
    assert rep["constants"] == [mp.nstr(closed.constants[0], 16)] == ["5.641895835477563e+19"]


def test_cli_float_count_flags_an_underflow(tmp_path, capsys):
    # with N weighing 1000, the share of the walks back at the origin falls
    # about 15-fold a step: by n = 300 it is below 1e-290 of S(1)^n and the
    # float count reads 0 where the walks exist, which the report flags
    path = _huge_n_model(tmp_path, "1000")
    argv = ["count", "--model", str(path), "--endpoint", "origin", "--mode", "float"]
    for n, flagged in (("100", False), ("300", True)):
        code, out = run_cli(capsys, *argv, "--n", n)
        assert code == 0
        assert json.loads(out).get("underflow", False) is flagged
    assert json.loads(out)["rows"][300]["count"] == "0.0"


def test_cli_capacity_error(capsys):
    assert main(["count", "--model", "N,S,E,W", "--n", "9000", "--mode", "float"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: float DP box")


def test_cli_asympt_partial_exit(capsys):
    # depth 2 is too shallow for the n^-3 leading term of this boundary return
    code, out = run_cli(capsys, "asympt", "--model", "N,SE,SW",
                        "--endpoint", "axes=1", "--order", "2")
    assert code == 2
    assert json.loads(out)["partial"] is True


def test_cli_model_file_and_formats(tmp_path, capsys):
    doc = {"dimension": 2,
           "steps": [{"vector": [0, 1], "weight": "1"}, "SE", "S", "SW"]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "count", "--model", str(path), "--n", "3",
                        "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,count"
    code, out = run_cli(capsys, "count", "--model", str(path), "--n", "3",
                        "--format", "md")
    assert out.startswith("| n | count |")


def test_cli_out_file_and_determinism(tmp_path, capsys):
    target = tmp_path / "report.json"
    argv = ["asympt", "--model", "N,SE,SW", "--out", str(target)]
    assert main(list(argv)) == 0
    first = target.read_bytes()
    assert main(list(argv)) == 0
    assert target.read_bytes() == first
    capsys.readouterr()


@pytest.mark.parametrize("doc, field", [
    ({"steps": ["N", "S", "E", "W"]}, "'dimension'"),
    ({"dimension": 2}, "'steps'"),
    ({"dimension": 2, "steps": [{"weight": "1"}, "S", "E", "W"]}, "'vector'"),
    (["N", "S", "E", "W"], "JSON object"),
    ({"dimension": 2, "steps": [5, "S", "E", "W"]}, "'vector'"),
    ({"dimension": 2, "steps": [{"vector": 5}, "S", "E", "W"]}, "step vector 5"),
    ({"dimension": 2, "steps": [{"vector": ["a", 1]}, "S", "E", "W"]}, "step vector ['a', 1]"),
    ({"dimension": 2, "steps": [{"vector": [0.5, 1]}, "S", "E", "W"]}, "step vector [0.5, 1]"),
    ({"dimension": 2.7, "steps": ["N", "S", "E", "W"]}, "'dimension' 2.7"),
    ({"dimension": 2, "steps": [{"vector": [True, 0]}, "N", "S", "W"]},
     "step vector [True, 0]"),
    ({"dimension": 2, "steps": [{"vector": "N", "weight": True}, "S", "E", "W"]},
     "weight True"),
    ({"dimension": True, "steps": ["N", "S", "E", "W"]}, "'dimension' True"),
    ({"dimension": 2, "steps": [{"vector": "N", "weight": "abc"}, "S", "E", "W"]},
     "weight 'abc'"),
    ({"dimension": 2, "steps": [{"vector": "N", "weight": "inf"}, "S", "E", "W"]},
     "weight 'inf'"),
    ({"dimension": 2, "steps": [{"vector": "N", "weight": "1/0"}, "S", "E", "W"]},
     "weight '1/0'"),
], ids=["no dimension", "no steps", "no vector", "list document", "number record",
        "number vector", "non-integer vector", "fractional vector", "fractional dimension",
        "boolean vector", "boolean weight", "boolean dimension", "non-numeric weight",
        "infinite weight", "zero-denominator weight"])
def test_cli_malformed_model_file(tmp_path, capsys, doc, field):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["count", "--model", str(path), "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and field in captured.err
    assert "Traceback" not in captured.err


# what each bad --endpoint prints after "usage error: --endpoint: " on a 2D model
BAD_ENDPOINTS = {
    "nowhere": "cannot parse endpoint filter 'nowhere'",
    "axes=a": "endpoint filter 'axes=a': 'a' is not an axis number",
    "axes=3": "endpoint filter 'axes=3': axes are numbered 1 to 2",
    "axes=": "endpoint filter 'axes=' names no axis",
    "axes=0": "endpoint filter 'axes=0': axes are numbered 1 to 2",
    "axes=1.5": "endpoint filter 'axes=1.5': '1.5' is not an axis number",
}


@pytest.mark.parametrize("command", ["count", "diagonal", "asympt", "verify"])
@pytest.mark.parametrize("endpoint", list(BAD_ENDPOINTS))
def test_cli_bad_endpoint_is_usage_error(capsys, command, endpoint):
    assert main([command, "--model", "N,SE,S,SW", "--endpoint", endpoint]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: --endpoint: {BAD_ENDPOINTS[endpoint]}\n"


def test_cli_usage_errors(capsys):
    assert main(["count", "--model", "NOT,A,MODEL"]) == 3
    assert main(["count"]) == 3
    capsys.readouterr()


def test_cli_reads_a_duplicate_step_list_as_a_model_file_does(tmp_path, capsys):
    # a compass list is not looked up by its set of steps: N,N,S,E,W is no N,S,E,W
    assert main(["asympt", "--model", "N,N,S,E,W"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "duplicate step vector (0, 1)" in captured.err
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dimension": 2, "steps": ["N", "N", "S", "E", "W"]}))
    assert main(["asympt", "--model", str(path)]) == 1
    assert "duplicate step vector (0, 1)" in capsys.readouterr().err


# ------------------------------------------------------ the error contract

COMPASS = sorted(SHORTHAND_2D) + ["X", "", "N:2", "NN"]
CATALOG_NAMES = [e.name for e in catalog_mod.ENTRIES]
# a few values of each flag a random command line draws from: valid ones, and
# ones below a floor, off a choice list or not numbers at all.  No line runs a
# catalog check, which runs the engine on every entry, or a verify, whose
# series must be longer than any --n here
FLAG_VALUES = {
    "--n": ["-1", "0", "4", "x"],
    "--endpoint": ["anywhere", "origin", "axes=1", "axes=2", "axes=3", "axes=", "nowhere"],
    "--mode": ["exact", "float", "int"],
    "--order": ["0", "1", "3"],
    "--digits": ["0", "6"],
    "--table": ["table1", "both", "table3"],
    "--modes": ["symbolic", "empirical", "both"],
    "--precision-bits": ["0", "64", "160"],
    "--format": ["json", "csv", "md", "xml"],
}
MODEL_DOCS = st.fixed_dictionaries({}, optional={
    "dimension": st.sampled_from([1, 2, 3, 0, "2", 2.5, None]),
    "steps": st.lists(st.one_of(
        st.sampled_from(COMPASS),
        st.fixed_dictionaries({"vector": st.one_of(
            st.sampled_from(COMPASS),
            st.lists(st.integers(-2, 2), min_size=1, max_size=4))}, optional={
            "weight": st.sampled_from(["1", "2", "1/2", "0", "-1", "abc", "1e400", 3, True])})),
        max_size=6),
})


@st.composite
def command_lines(draw):
    """A subcommand with a random set of flags, some that it does not take,
    and a model: a catalog name, a compass list, a model file's document, or
    none."""
    command = draw(st.sampled_from(list(COMMAND_FLAGS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)), max_size=3, unique=True)):
        argv += [flag, draw(st.sampled_from(FLAG_VALUES[flag]))]
    if command in ("count", "diagonal", "verify") and "--n" not in argv:
        argv += ["--n", "4"]  # short series: the budget goes to the checks
    model = draw(st.one_of(st.none(), st.sampled_from(CATALOG_NAMES),
                           st.lists(st.sampled_from(COMPASS), max_size=6).map(",".join),
                           MODEL_DOCS))
    return argv, model


@settings(max_examples=150, deadline=None)
@given(command_lines())
def test_cli_never_raises_and_exits_0_to_3(line):
    # main reports every failure as an error line and an exit code, never as
    # a traceback
    argv, model = line
    takes = COMMAND_FLAGS[argv[0]] + SHARED_FLAGS
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(model, dict):
            path = os.path.join(tmp, "model.json")
            with open(path, "w") as fh:
                json.dump(model, fh)
            model = path
        if model is not None:
            argv += ["--model", model]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if any(a.startswith("--") and a not in takes for a in argv):
        assert code == 3, argv  # a flag the subcommand does not take
    if code in (0, 2):
        assert out.getvalue() and not err.getvalue(), argv
    else:
        assert not out.getvalue() and err.getvalue().count("\n") == 1, argv
    assert multiprocessing.active_children() == []


def test_cli_catalog_listing(capsys):
    code, out = run_cli(capsys, "catalog")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 23


@pytest.mark.parametrize("argv", [
    ["orbitsum", "--model", "N,S,E,W", "--n", "5"],
    ["catalog", "--mode", "float"],
    ["count", "--model", "N,S,E,W", "--threads", "4"],
    ["catalog", "--check", "--threads", "2"],
])
def test_cli_rejects_flags_a_subcommand_ignores(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: unrecognized arguments" in captured.err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_cli_readme_command_lines_parse():
    readme = README.read_text()
    lines = re.findall(r"^orthantwalks +(.+)$", readme, flags=re.M)
    assert len(lines) == 7
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line))


def test_cli_readme_flag_table_matches_the_parser():
    readme = README.read_text()
    table = dict(re.findall(r"^\| `(\w+)` \| (.+) \|$", readme, flags=re.M))
    assert {command: tuple(re.findall(r"`(--[\w-]+)", flags))
            for command, flags in table.items()} == COMMAND_FLAGS
    shared = re.search(r"Every subcommand also takes (.+?)\.\s", readme, flags=re.S)
    assert tuple(re.findall(r"`(--[\w-]+)", shared[1])) == SHARED_FLAGS
