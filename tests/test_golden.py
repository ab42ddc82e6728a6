"""Byte-level golden reports: the JSON each command writes must not change.

The expected files in ``tests/golden`` were written by the same commands
before the refactors they guard (the comparison path; the exact point
selection and the single integrand constructor; one working precision per
saddle expansion); a refactor that keeps every number keeps these bytes.
Four were rewritten when the substitution jets became exact
(``asympt_3d_axes1``, ``asympt_N_SE_SW_axes1``,
``asympt_N_S_SE_SW_origin_order5``, ``verify_N_SE_S_SW``): only their term
coefficients that had printed rounding noise (e-77 to e-98) changed, each to
an exact 0.  To regenerate one after an intended change, run its command with
``--out tests/golden/<name>.json`` and say why in CHANGES.md.
"""

from pathlib import Path

import pytest

from orthantwalks.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit code)
CASES = {
    "verify_N_SE_S_SW": (["verify", "--n", "256", "--model", "N,SE,S,SW"], 0),
    "verify_N_W_SE": (["verify", "--n", "256", "--model", "N,W,SE"], 2),
    "catalog_symbolic": (["catalog", "--check", "--table", "both",
                          "--modes", "symbolic"], 0),
    # both modes: the empirical cells' fitted details, at the default n 512
    "catalog_both": (["catalog", "--check", "--table", "both"], 0),
    "asympt_N_SE_SW_axes1": (["asympt", "--model", "N,SE,SW",
                              "--endpoint", "axes=1"], 0),
    "critical_N_SE_S_SW": (["critical", "--model", "N,SE,S,SW"], 0),
    # the one-factor form of fully symmetric models, and the residue at a crossing
    "asympt_N_S_E_W_origin": (["asympt", "--model", "N,S,E,W", "--endpoint", "origin"], 0),
    "asympt_NE_NW_S": (["asympt", "--model", "NE,NW,S"], 0),
    "critical_NE_NW_S": (["critical", "--model", "NE,NW,S"], 0),
    "critical_N_S_E_W": (["critical", "--model", "N,S,E,W"], 0),
    # the deepest jets: depth 5 in 2D, and depth 3 over three variables in 3D
    "asympt_N_S_SE_SW_origin_order5": (["asympt", "--model", "N,S,SE,SW", "--endpoint",
                                        "origin", "--order", "5", "--digits", "30"], 0),
    "asympt_3d_axes1": (["asympt", "--model", str(GOLDEN / "model_3d_example.json"),
                         "--endpoint", "axes=1", "--digits", "30"], 0),
    # depth 6 over three variables: the deepest jets and the longest L_k sums
    "asympt_3d_origin_order6": (["asympt", "--model", str(GOLDEN / "model_3d_example.json"),
                                 "--endpoint", "origin", "--order", "6", "--digits", "30"], 0),
    # the drift axis first: NE,NW,S with its axes swapped, so each filter is
    # translated to canonical axes (crossing points, smooth sheet, diagonal)
    "asympt_W_NE_SE_axes2": (["asympt", "--model", "W,NE,SE", "--endpoint", "axes=2"], 0),
    "asympt_W_NE_SE_axes1": (["asympt", "--model", "W,NE,SE", "--endpoint", "axes=1"], 0),
    "diagonal_W_NE_SE_axes2": (["diagonal", "--model", "W,NE,SE", "--endpoint", "axes=2",
                                "--n", "12"], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    argv, code = CASES[name]
    out = tmp_path / f"{name}.json"
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
