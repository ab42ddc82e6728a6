"""Module boundaries the package keeps, checked on its source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from mpmath import mp

import orthantwalks
from orthantwalks import fit

PACKAGE = Path(orthantwalks.__file__).parent
GOLDEN = Path(__file__).parent / "golden"
LAURENT = "orthantwalks.laurent"
# the coordinates of a Q(sqrt(m)) value and a jet's integer pairs
VALUE_INTERNALS = {"coeffs", "scale", "base", "r", "rat", "coef"}


def _laurent_leaks(source, fields=frozenset()):
    """(line, name) of each _-prefixed laurent name the source reaches, by
    import or as an attribute of the module, and of each read of an
    attribute named in ``fields``, whatever its object."""
    tree = ast.parse(source)
    found, aliases = [], set()  # aliases: the expressions bound to the module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == LAURENT or (node.level == 1 and node.module == "laurent"):
                found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
            elif node.module == "orthantwalks" or (node.level == 1 and node.module is None):
                aliases |= {a.asname or a.name for a in node.names if a.name == "laurent"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == LAURENT}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                (node.attr.startswith("_") and ast.unparse(node.value) in aliases)
                or (node.attr in fields and isinstance(node.ctx, ast.Load))):
            found.append((node.lineno, node.attr))
    return found


def test_the_guard_sees_every_way_in():
    assert _laurent_leaks("from orthantwalks.laurent import Jet, _mul_into") == [(1, "_mul_into")]
    assert _laurent_leaks("from .laurent import _exact_root") == [(1, "_exact_root")]
    assert _laurent_leaks("import orthantwalks.laurent as L\nL._mul_into(o)") == [(2, "_mul_into")]
    assert _laurent_leaks("import orthantwalks.laurent\northantwalks.laurent._x") == [(2, "_x")]
    assert _laurent_leaks("from orthantwalks import laurent\nlaurent._mul_into") == [
        (2, "_mul_into")]
    assert _laurent_leaks("from . import laurent as lp\nlp._exact_root(q)") == [(2, "_exact_root")]
    assert _laurent_leaks("x = v.rat + jet.coeffs[e]", VALUE_INTERNALS) == [
        (1, "rat"), (1, "coeffs")]
    assert _laurent_leaks("import orthantwalks.laurent as L\nL.Jet\nself._cache\nv.rat") == []


def test_no_module_reaches_laurent_internals():
    # the Q(sqrt(m)) format and the jets' integer pairs stay behind laurent's
    # public names: QuadVal and the Jet accessors
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "laurent.py")
    assert len(modules) >= 9
    offenders = {p.name: found for p in modules if (found := _laurent_leaks(p.read_text()))}
    assert not offenders


def test_engine_and_point_search_take_no_value_apart():
    # asympt and critical build and combine values and read jets through
    # value/values/even_part/coefficient, never their coordinates
    offenders = {name: found for name in ("asympt.py", "critical.py")
                 if (found := _laurent_leaks((PACKAGE / name).read_text(), VALUE_INTERNALS))}
    assert not offenders


def _powers_of_two(source):
    """(line, expression) of each power of mpf(2) the source writes, by any
    name of mpf: a tolerance written by hand."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base = node.left
            if (isinstance(base, ast.Call) and ast.unparse(base.func).split(".")[-1] == "mpf"
                    and [ast.unparse(a) for a in base.args] in (["2"], ["2.0"], ["'2'"])):
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_the_tolerance_guard_sees_every_spelling():
    assert _powers_of_two("tol = mp.mpf(2) ** -160") == [(1, "mp.mpf(2) ** (-160)")]
    assert _powers_of_two("x\nt = mpmath.mpf('2') ** (-(mp.prec // 2)) * y") == [
        (2, "mpmath.mpf('2') ** (-(mp.prec // 2))")]
    assert _powers_of_two("from mpmath import mpf\nt = mpf(2.0) ** k") == [(2, "mpf(2.0) ** k")]
    assert _powers_of_two("mp.mpf(10) ** -30\nmp.mpf(2) * 3\n2 ** -8\nmath.ldexp(1.0, 3)") == []


def test_rounding_noise_has_one_rule():
    # every numeric zero test reads laurent.noise_floor at the working precision
    offenders = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
                 if p.name != "laurent.py" and (found := _powers_of_two(p.read_text()))}
    assert not offenders


def test_engine_asks_the_jets_for_degrees():
    # the jets check that their orders fix each product (Jet.times,
    # Jet.even_part); the engine reads no order to decide it
    assert _laurent_leaks((PACKAGE / "asympt.py").read_text(), {"order"}) == []
    assert _laurent_leaks("if g.order < 2 * N:\n    pass", {"order"}) == [(1, "order")]


def _fresh_run(probe):
    """The standard output of ``probe`` run in a new interpreter on the
    package source: this session has numpy loaded already."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True).stdout


ARRAY_CODE = ("numpy", "orthantwalks._dp")


def test_cli_import_leaves_out_the_process_pool():
    # concurrent.futures.process costs about 35 ms to import, a sizeable share
    # of the CLI's start-up; only a catalog run with more than one worker needs it
    probe = ("import sys, orthantwalks.cli\n"
             "print(sorted(m for m in sys.modules\n"
             "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    assert _fresh_run(probe).strip() == "[]"


def test_only_counting_walks_loads_the_array_code():
    # numpy and the DP kernel cost about 0.13 s and 12 MB to import; the
    # engine, the point search, the diagonal and the catalog's listing and
    # symbolic check count no walks, so they never load them
    probe = f"""
import contextlib, io, sys
import orthantwalks.cli as cli
loaded = lambda: [m for m in {ARRAY_CODE!r} if m in sys.modules]
print("import", loaded())
for argv in (["asympt", "--model", "N,SE,SW"], ["critical", "--model", "N,S,E,W"],
             ["diagonal", "--model", "N,SE,SW"], ["orbitsum", "--model", "N,SE,SW"],
             ["catalog"], ["catalog", "--check", "--modes", "symbolic", "--table", "both"],
             ["count", "--model", "N,SE,SW", "--n", "8"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(" ".join(argv[:2]), code, loaded())
"""
    assert _fresh_run(probe).splitlines() == [
        "import []",
        "asympt --model 0 []",
        "critical --model 0 []",
        "diagonal --model 0 []",
        "orbitsum --model 0 []",
        "catalog 0 []",
        "catalog --check 0 []",
        f"count --model 0 {list(ARRAY_CODE)}",
    ]


def test_the_engine_loads_no_dp_code():
    # endpoint filters and their canonical axes live in stepset, so the
    # engine, the point search and the fitter never import the DP oracle
    probe = f"""
import sys
import orthantwalks.asympt, orthantwalks.critical, orthantwalks.fit
from orthantwalks.stepset import build_stepset, load_stepset
orthantwalks.asympt.asympt_full(build_stepset(2, ["N", "SE", "SW"]), ("axes", (0,)))
orthantwalks.asympt.asympt_full(load_stepset({str(GOLDEN / "model_3d_example.json")!r}), "origin")
print([m for m in ("orthantwalks.enumeration", "orthantwalks._dp") if m in sys.modules])
"""
    assert _fresh_run(probe).strip() == "[]"


def test_catalog_pool_forks_after_the_kernel_is_loaded():
    # the forked workers inherit numpy and the kernel rather than each
    # importing them again
    probe = f"""
import concurrent.futures, sys
from orthantwalks import catalog

class Pool:
    def __init__(self, max_workers):
        print("pool", max_workers, [m for m in {ARRAY_CODE!r} if m in sys.modules])

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def shutdown(self, **kwargs):
        pass

concurrent.futures.ProcessPoolExecutor = Pool
entries = [catalog.lookup("N,S,E,W"), catalog.lookup("N,SE,SW")]
print(len(catalog.reproduce_tables("table1", ("empirical",), n_max=80, entries=entries,
                                   threads=2)))
"""
    assert _fresh_run(probe).splitlines() == [f"pool 2 {list(ARRAY_CODE)}", "2"]


def _tolerance_uses(source):
    """(line, name) of each comparison tolerance the source defines, reads or
    imports: SYMBOLIC_REL_TOL and the EMP_* names."""
    def tolerance(name):
        return name == "SYMBOLIC_REL_TOL" or name.startswith("EMP_")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and tolerance(node.id):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and tolerance(node.attr):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if tolerance(a.name)]
    return found


def test_the_tolerance_owner_guard_sees_every_use():
    assert _tolerance_uses("from orthantwalks.fit import EMP_ALPHA_TOL as tol") == [
        (1, "EMP_ALPHA_TOL")]
    assert _tolerance_uses("import orthantwalks.fit as f\nok = err < f.SYMBOLIC_REL_TOL") == [
        (2, "SYMBOLIC_REL_TOL")]
    assert _tolerance_uses("EMP_CONST_TOL = 0.2") == [(1, "EMP_CONST_TOL")]
    assert _tolerance_uses("from orthantwalks.fit import compare\nTOL = 1e-3") == []


def test_only_fit_holds_the_comparison_tolerances():
    # one comparison reads them, so the symbolic and the empirical rule cannot
    # drift apart between verify and catalog --check
    offenders = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
                 if p.name != "fit.py" and (found := _tolerance_uses(p.read_text()))}
    assert not offenders
    with mp.workprec(53):
        assert fit.SYMBOLIC_REL_TOL == mp.mpf("1e-12")
    assert (fit.EMP_LOG_RHO_TOL, fit.EMP_ALPHA_TOL, fit.EMP_CONST_TOL) == (1e-2, 0.05, 0.10)


def test_cli_only_parses_dispatches_and_writes():
    # verification lives in orthantwalks.verify; cli re-exports verify_model
    # and estimate_growth by name, which perfbench wraps
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"verify_model", "VerificationReport", "expansion_payload"}
    from orthantwalks import cli, verify
    assert cli.verify_model is verify.verify_model
    assert cli.estimate_growth is fit.estimate_growth
