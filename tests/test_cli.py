"""Command-line surface: argument handling, exit codes, file formats."""

import json
import warnings

import numpy as np
import pytest

from groupsparse import GroupedDesign, McConfig, SelectionConfig
from groupsparse.experiments import gen_problem
from groupsparse.selection import estimate_sigma2, estimate_sigma2_ls
from groupsparse.cli import FIT_METHODS, main, parse_groups, \
    read_csv_matrix, write_csv_matrix
from groupsparse.cli import CliError
from groupsparse.experiments import ESTIMATORS


@pytest.fixture
def fixture_dir(tmp_path):
    """Packaged-style example dataset written by the simulate command."""
    out = tmp_path / "sim"
    assert main(["simulate", "--experiment", "exp1", "--seed", "1",
                 "--out", str(out)]) == 0
    return out


# ------------------------------------------------------------
# helpers
# ------------------------------------------------------------

def _one_line(err):
    """err is a single line: the CLI's message and no NumPy warning."""
    return err.count("\n") <= 1


def test_read_csv_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3,x\n")
    with pytest.raises(CliError, match="line 2"):
        read_csv_matrix(str(p))
    p.write_text("1,2\n3\n")
    with pytest.raises(CliError, match="ragged CSV at line 2"):
        read_csv_matrix(str(p))
    p.write_text("")
    with pytest.raises(CliError, match="empty"):
        read_csv_matrix(str(p))


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_read_csv_rejects_non_finite_entries(tmp_path, entry):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3,%s\n" % entry)
    with pytest.raises(CliError, match="non-finite"):
        read_csv_matrix(str(p))


@pytest.mark.parametrize("text", [
    b"1.5,-2\n3,4e-3\n",
    b"\n1.5,-2\n\n3,4e-3\n\n",
    b" 1.5 , -2\n\t3,  4e-3 \n",
    b"1.5,-2\r\n3,4e-3\r\n",
    b"1.5,-2\n   \n3,4e-3",
])
def test_read_csv_blank_lines_spaces_and_crlf(tmp_path, text):
    """Blank lines (a line of spaces too), spaces around fields, CRLF line
    ends and a missing last newline all read as the plain file."""
    p = tmp_path / "m.csv"
    p.write_bytes(text)
    A = read_csv_matrix(str(p))
    assert A.shape == (2, 2)
    assert np.array_equal(A, [[1.5, -2.0], [3.0, 4e-3]])


def test_read_csv_line_numbers_count_blank_lines(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("\n1,2\n\n3,x\n")
    with pytest.raises(CliError, match="malformed CSV at line 4"):
        read_csv_matrix(str(p))
    p.write_text("1,2\n  \n3,4,5\n")
    with pytest.raises(CliError, match="ragged CSV at line 3"):
        read_csv_matrix(str(p))
    p.write_text(" \n\n")
    with pytest.raises(CliError, match="empty CSV"):
        read_csv_matrix(str(p))


def test_write_csv_matrix_bytes_and_exact_round_trip(tmp_path):
    """write_csv_matrix writes each entry as repr of the float, one row per
    line, and read_csv_matrix reads every bit of it back (signed zero
    included)."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5))
    A[0, 0], A[1, 1] = -0.0, 0.0
    p = tmp_path / "m.csv"
    write_csv_matrix(str(p), A)
    assert p.read_bytes() == "".join(
        ",".join(repr(float(x)) for x in row) + "\n" for row in A).encode()
    B = read_csv_matrix(str(p))
    assert np.array_equal(B.view(np.uint64), A.view(np.uint64))


def test_parse_groups():
    assert parse_groups("2,3", 5) == [2, 3]
    assert parse_groups("4", 12) == [4, 4, 4]
    assert parse_groups("5", 5) == [5]
    with pytest.raises(CliError):
        parse_groups("3", 10)
    with pytest.raises(CliError):
        parse_groups("2,2", 5)
    with pytest.raises(CliError):
        parse_groups("a,b", 2)


# ------------------------------------------------------------
# simulate
# ------------------------------------------------------------

def test_simulate_writes_consistent_files(fixture_dir):
    G = read_csv_matrix(str(fixture_dir / "G.csv"))
    y = read_csv_matrix(str(fixture_dir / "y.csv"))
    theta = read_csv_matrix(str(fixture_dir / "theta.csv"))
    meta = json.loads((fixture_dir / "meta.json").read_text())
    assert G.shape == (100, 40) and y.shape == (100, 1)
    assert theta.shape == (40, 1)
    assert meta["groups"] == [4] * 10 and meta["sigma2_true"] > 0


# ------------------------------------------------------------
# fit
# ------------------------------------------------------------

def test_fit_hgla_on_fixture(fixture_dir, tmp_path):
    out = tmp_path / "fit.json"
    code = main(["fit", "--method", "hgla",
                 "--data-y", str(fixture_dir / "y.csv"),
                 "--data-g", str(fixture_dir / "G.csv"),
                 "--groups", "4", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["selected"]                      # nonempty selection
    assert len(doc["theta"]) == 40
    assert doc["diagnostics"]["converged"] is True


def test_fit_hgl_reports_the_greedy_path(fixture_dir, tmp_path):
    """The fit's diagnostics carry the unpenalized greedy path; hgla's
    selection is its head."""
    out = tmp_path / "fit.json"
    assert main(["fit", "--method", "hgla",
                 "--data-y", str(fixture_dir / "y.csv"),
                 "--data-g", str(fixture_dir / "G.csv"),
                 "--groups", "4", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    order = doc["diagnostics"]["greedy_order"]
    gains = doc["diagnostics"]["greedy_gains"]
    assert len(order) == len(gains) >= len(doc["selected"]) > 0
    assert sorted(order[:len(doc["selected"])]) == doc["selected"]
    assert all(g > 0 for g in gains)
    assert doc["diagnostics"]["min_free_hessian_eig"] is None


def test_fit_mkl_rejects_nonpositive_gamma(fixture_dir, capsys):
    code = main(["fit", "--method", "mkl",
                 "--data-y", str(fixture_dir / "y.csv"),
                 "--data-g", str(fixture_dir / "G.csv"),
                 "--groups", "4", "--gamma", "0"])
    assert code == 2
    assert "positive gamma" in capsys.readouterr().err


@pytest.mark.parametrize("method,flags,message", [
    ("lasso", ["--gamma", "nan"], "--gamma must be finite"),
    ("hgla", ["--gamma", "inf"], "--gamma must be finite"),
    ("hgla", ["--sigma2", "inf"], "--sigma2 must be finite"),
    ("hglb", ["--sigma2", "nan"], "--sigma2 must be finite"),
    ("hgla", ["--nan-y"], "non-finite entry"),
    ("mkl", ["--nan-g"], "non-finite entry"),
    ("hgla", ["--grid-hi", "inf"], "grid_hi, both finite"),
])
def test_fit_rejects_non_finite_input(fixture_dir, tmp_path, capsys,
                                      method, flags, message):
    """A non-finite --gamma, --sigma2 or --grid-hi, or a nan in either
    CSV, exits 2 (a nan penalty would never end the Lasso path, an
    infinite one would write invalid JSON)."""
    data = {"y": fixture_dir / "y.csv", "g": fixture_dir / "G.csv"}
    if flags[0].startswith("--nan-"):
        which = flags.pop()[-1]
        A = read_csv_matrix(str(data[which]))
        A[1, 0] = np.nan
        data[which] = tmp_path / ("nan_%s.csv" % which)
        write_csv_matrix(str(data[which]), A)
    code = main(["fit", "--method", method, "--data-y", str(data["y"]),
                 "--data-g", str(data["g"]), "--groups", "4"] + flags)
    assert code == 2
    assert message in capsys.readouterr().err


def test_a_non_finite_estimate_exits_3(fixture_dir, arx_csv, tmp_path,
                                       capsys):
    """fit and arx exit 3 with a one-line message, no NumPy warning, and
    write no result when the hgla, hglb or hglc theta is not finite
    (sigma2 = 1e-320 overflows the hgl selection stage)."""
    out = tmp_path / "out"
    for method in ("hgla", "hglb", "hglc"):
        for data in (["fit", "--data-y", str(fixture_dir / "y.csv"),
                      "--data-g", str(fixture_dir / "G.csv"),
                      "--groups", "4"],
                     ["arx", "--data", str(arx_csv), "--q", "10"]):
            code = main(data + ["--method", method, "--sigma2", "1e-320",
                                "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 3, (data[0], method)
            assert "%s estimate is not finite" % method in err and \
                _one_line(err), (data[0], method)
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("method", ["lasso", "adalasso"])
def test_a_lasso_grid_that_overflows_exits_3(fixture_dir, capsys, method):
    """At sigma2 = 1e-320 the largest penalty of the Lasso grid overflows:
    a numerical failure (exit 3) with a message, and no NumPy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--method", method,
                     "--data-y", str(fixture_dir / "y.csv"),
                     "--data-g", str(fixture_dir / "G.csv"), "--groups", "4",
                     "--sigma2", "1e-320"])
    assert code == 3
    err = capsys.readouterr().err
    assert "penalty grid overflows" in err and _one_line(err)


@pytest.mark.parametrize("method,flag", [
    ("hglb", "--gamma"), ("glasso", "--gamma"), ("mkl", "--sigma2")])
def test_a_fit_at_a_valid_extreme_prints_no_warning(fixture_dir, tmp_path,
                                                   capsys, method, flag):
    """A finite --gamma or --sigma2 of 1e308 is valid input: the fit may
    overflow inside, but exits 0 and prints nothing to stderr."""
    out = tmp_path / "fit.json"
    code = main(["fit", "--method", method,
                 "--data-y", str(fixture_dir / "y.csv"),
                 "--data-g", str(fixture_dir / "G.csv"), "--groups", "4",
                 flag, "1e308", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["diagnostics"]["converged"]


@pytest.mark.parametrize("case,message", [
    ("missing G", "No such file or directory"),
    ("two-column y", "y must be a single column"),
    ("no --groups", "--groups is required for fit"),
    ("empty group", "every group size must be >= 1"),
    ("long horizon", "test series too short"),
])
def test_data_errors_exit_2(fixture_dir, arx_csv, tmp_path, capsys, case,
                            message):
    """A missing file, a y of two columns, no --groups, a block of size 0,
    and an arx --horizon longer than the test part are usage or data
    errors: exit 2 and one line naming the problem."""
    y, g = str(fixture_dir / "y.csv"), str(fixture_dir / "G.csv")
    np.savetxt(tmp_path / "y2.csv", np.ones((100, 2)), delimiter=",")
    argv = {
        "missing G": ["fit", "--data-y", y, "--data-g",
                      str(tmp_path / "none.csv"), "--groups", "4"],
        "two-column y": ["fit", "--data-y", str(tmp_path / "y2.csv"),
                         "--data-g", g, "--groups", "4"],
        "no --groups": ["fit", "--data-y", y, "--data-g", g],
        "empty group": ["fit", "--data-y", y, "--data-g", g,
                        "--groups", "40,0"],
        "long horizon": ["arx", "--data", str(arx_csv), "--q", "10",
                         "--horizon", "200", "--sigma2", "1",
                         "--out", str(tmp_path / "arx")],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and _one_line(err)
    assert not list(tmp_path.glob("arx*"))


def test_an_unwritable_out_exits_2(fixture_dir, arx_csv, tmp_path, capsys,
                                  monkeypatch):
    """An --out that cannot be written (a missing directory, or for
    simulate an existing file) is a usage error: exit 2 and a message
    naming the path, not a traceback.  benchmark finds it out before its
    campaign runs a fit."""
    def campaign(config):
        raise AssertionError("the campaign ran before --out was checked")

    monkeypatch.setattr("groupsparse.experiments.run_monte_carlo", campaign)
    missing = tmp_path / "missing"
    data = ["--data-y", str(fixture_dir / "y.csv"),
            "--data-g", str(fixture_dir / "G.csv"), "--groups", "4"]
    for argv, path in [
            (["fit"] + data + ["--out", str(missing / "x.json")],
             missing / "x.json"),
            (["benchmark", "--runs", "1", "--estimators", "oracle",
              "--out", str(missing / "r")], missing / "r.json"),
            (["arx", "--data", str(arx_csv), "--q", "10", "--horizon", "2",
              "--sigma2", "1", "--out", str(missing / "a")],
             missing / "a.csv"),
            (["simulate", "--seed", "1", "--out",
              str(fixture_dir / "G.csv")], fixture_dir / "G.csv")]:
        capsys.readouterr()
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err, argv[0]
        assert "Traceback" not in err


def test_noiseless_data_fit_every_method(fixture_dir, tmp_path):
    """With y = G theta exactly, the least-squares sigma2 is at rounding
    level; the floor of estimate_sigma2 lets every method fit, through the
    CLI and through ESTIMATORS on one shared ctx: a finite estimate on the
    true blocks, an exit code that follows converged, and hgla, mkl,
    glasso, lasso and adalasso converged."""
    G = read_csv_matrix(str(fixture_dir / "G.csv"))
    theta = read_csv_matrix(str(fixture_dir / "theta.csv")).ravel()
    y = G @ theta
    y_csv = tmp_path / "y0.csv"
    write_csv_matrix(str(y_csv), y.reshape(-1, 1))
    design = GroupedDesign(G, [4] * 10)
    truth = np.flatnonzero(design.block_norms(theta)).tolist()
    s2 = estimate_sigma2(y, G)
    assert estimate_sigma2_ls(y, G) < s2 == 1e-14 * (y @ y) / y.size
    ctx = {}
    for method in FIT_METHODS:
        out = tmp_path / ("%s.json" % method)
        code = main(["fit", "--method", method, "--data-y", str(y_csv),
                     "--data-g", str(fixture_dir / "G.csv"), "--groups",
                     "4", "--out", str(out)])
        doc = json.loads(out.read_text())
        res = ESTIMATORS[method](y, design, s2, ctx)
        for th, converged in ((np.array(doc["theta"]),
                               doc["diagnostics"]["converged"]),
                              (res.theta, res.converged)):
            assert np.isfinite(th).all(), method
            assert np.flatnonzero(design.block_norms(th)).tolist() == \
                truth, method
            assert converged or method in ("hglb", "hglc"), method
        assert code == (0 if doc["diagnostics"]["converged"] else 3), method


def test_a_numerical_failure_in_a_fit_exits_3(fixture_dir, tmp_path,
                                             capsys):
    """A LinAlgError raised inside an estimator is a numerical failure
    (exit 3), not a usage error, though LinAlgError is a ValueError: with
    G scaled by 1e160 an eigensolver in the mkl fit does not converge."""
    G = read_csv_matrix(str(fixture_dir / "G.csv"))
    big = tmp_path / "G_big.csv"
    write_csv_matrix(str(big), G * 1e160)
    code = main(["fit", "--method", "mkl", "--data-y",
                 str(fixture_dir / "y.csv"), "--data-g", str(big),
                 "--groups", "4", "--out", str(tmp_path / "out.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and _one_line(err)


@pytest.mark.parametrize("method", ["mkl", "glasso"])
def test_fit_writes_valid_json_when_a_diagnostic_overflows(
        fixture_dir, tmp_path, capsys, method):
    """At sigma2 = 1e-320 the mkl/glasso objective (and mkl's KKT residual)
    overflow while theta stays finite: the fit writes them as null, never
    as Infinity or NaN, which JSON does not have.  With no finite
    certificate the fit is not converged, and exits 3, printing no NumPy
    warning."""
    out = tmp_path / "out.json"
    code = main(["fit", "--method", method,
                 "--data-y", str(fixture_dir / "y.csv"),
                 "--data-g", str(fixture_dir / "G.csv"), "--groups", "4",
                 "--sigma2", "1e-320", "--out", str(out)])
    assert code == 3
    assert _one_line(capsys.readouterr().err)

    def reject(name):
        raise ValueError("not JSON: %s" % name)

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert doc["diagnostics"]["objective"] is None
    assert all(np.isfinite(doc["theta"]))


def test_fit_writes_counts_as_json_integers(fixture_dir, tmp_path):
    """Counts in the diagnostics are JSON integers, the certificate a JSON
    number and converged a JSON bool: lasso, mkl and hglb output."""
    counts = {"lasso": ("breakpoints", "factorizations",
                        "unconverged_solves"),
              "mkl": ("newton_steps", "blocks_added", "retreats",
                      "unconverged_solves"),
              "hglb": ("factorizations", "damped_directions")}
    for method, keys in counts.items():
        out = tmp_path / ("%s.json" % method)
        assert main(["fit", "--method", method,
                     "--data-y", str(fixture_dir / "y.csv"),
                     "--data-g", str(fixture_dir / "G.csv"), "--groups",
                     "4", "--out", str(out)]) == 0
        diag = json.loads(out.read_text())["diagnostics"]
        for key in keys + ("iterations",):
            assert type(diag[key]) is int, (method, key)
        assert type(diag["kkt_residual"]) is float, method
        assert diag["converged"] is True, method


def test_fit_lasso_glasso_reject_negative_gamma(fixture_dir, capsys):
    for method in ("lasso", "glasso"):
        code = main(["fit", "--method", method,
                     "--data-y", str(fixture_dir / "y.csv"),
                     "--data-g", str(fixture_dir / "G.csv"),
                     "--groups", "4", "--gamma", "-1"])
        assert code == 2
        assert "--gamma must be nonnegative" in capsys.readouterr().err


def test_fit_lasso_at_gamma_zero_is_least_squares(fixture_dir, tmp_path):
    out = tmp_path / "fit.json"
    code = main(["fit", "--method", "lasso",
                 "--data-y", str(fixture_dir / "y.csv"),
                 "--data-g", str(fixture_dir / "G.csv"),
                 "--groups", "4", "--gamma", "0", "--out", str(out)])
    assert code == 0
    G = read_csv_matrix(str(fixture_dir / "G.csv"))
    y = read_csv_matrix(str(fixture_dir / "y.csv")).ravel()
    ls, *_ = np.linalg.lstsq(G, y, rcond=None)
    theta = np.array(json.loads(out.read_text())["theta"])
    assert np.linalg.norm(theta - ls) <= 1e-10 * np.linalg.norm(ls)


def test_fit_lasso_on_wide_designs_is_certified(tmp_path):
    """fit --method lasso --sigma2 on the m > n generator (exp1 with p=40,
    k=4, n=100, master seed 0, the generator's noise variance): problem 0
    is certified, and on problem 1, where the active set reaches n, the
    exit code agrees with the KKT residual."""
    cfg = McConfig(experiment="exp1", runs=1, master_seed=0, estimators=[],
                   p=40, k=4, n=100)
    for run in (0, 1):
        design, _, y, sigma2 = gen_problem(cfg, run)
        write_csv_matrix(str(tmp_path / "G.csv"), design.G)
        write_csv_matrix(str(tmp_path / "y.csv"), y.reshape(-1, 1))
        out = tmp_path / "fit.json"
        code = main(["fit", "--method", "lasso",
                     "--data-y", str(tmp_path / "y.csv"),
                     "--data-g", str(tmp_path / "G.csv"), "--groups", "4",
                     "--sigma2", repr(sigma2), "--out", str(out)])
        doc = json.loads(out.read_text())
        certified = doc["diagnostics"]["kkt_residual"] <= 1e-8 * doc["gamma"]
        assert code == (0 if certified else 3)
        if run == 0:
            assert certified
        else:
            assert np.count_nonzero(doc["theta"]) == design.n


def test_fit_mkl_on_wide_designs_is_certified(tmp_path):
    """fit --method mkl --sigma2 on the m > n generator (exp1 with p=40,
    master seed 0, problems 0-3): the validation path and the full-data
    refit run with m > n, the fit exits 0 and its scales pass
    kkt_residual_mkl at 1e-8 of 2 gamma."""
    for run in range(4):
        out = tmp_path / "fit.json"
        assert main(["fit", "--method", "mkl", "--out", str(out)]
                    + _wide_problem(tmp_path, 0, run)) == 0
        doc = json.loads(out.read_text())
        assert doc["diagnostics"]["converged"] is True
        assert doc["diagnostics"]["kkt_residual"] <= 1e-8 * 2.0 * doc["gamma"]


@pytest.mark.parametrize("method,flags", [(m, []) for m in FIT_METHODS]
                         + [("mkl", ["--grid-n", "5"])])
def test_fit_is_the_registry_estimator(fixture_dir, tmp_path, method, flags):
    """fit makes one registry call: its JSON is ESTIMATORS[method] called
    with the sigma2 and ctx the CLI builds, and --grid-* reach the
    selection stage that centres mkl's gamma grid."""
    out = tmp_path / "fit.json"
    code = main(["fit", "--method", method,
                 "--data-y", str(fixture_dir / "y.csv"),
                 "--data-g", str(fixture_dir / "G.csv"), "--groups", "4",
                 "--out", str(out)] + flags)
    doc = json.loads(out.read_text())
    G = read_csv_matrix(str(fixture_dir / "G.csv"))
    y = read_csv_matrix(str(fixture_dir / "y.csv")).ravel()
    ctx = {"selection": SelectionConfig(grid_n=5) if flags
           else SelectionConfig(), "gamma": None}
    res = ESTIMATORS[method](y, GroupedDesign(G, [4] * 10),
                             estimate_sigma2(y, G), ctx)
    assert code == (0 if res.converged else 3)
    assert doc["theta"] == [float(x) for x in res.theta]
    assert doc["lambda"] == (None if res.lam is None
                             else [float(x) for x in res.lam])
    assert doc["gamma"] == float(res.gamma)
    assert doc["selected"] == [int(i) for i in res.selected]
    if flags:
        assert ctx["stage"].gammas.size == 5


@pytest.mark.parametrize("flags,message", [
    (["--method", "adalasso", "--gamma", "5"], "takes no --gamma"),
    (["--method", "lasso", "--grid-n", "5"], "do not apply to lasso"),
    (["--method", "adalasso", "--grid-lo", "1"], "do not apply to adalasso"),
    (["--method", "hgla", "--gamma", "1", "--grid-hi", "10"],
     "with a fixed --gamma"),
    (["--method", "mkl", "--gamma", "1", "--grid-n", "5"],
     "with a fixed --gamma"),
    (["--method", "glasso", "--gamma", "1", "--grid-lo", "1"],
     "with a fixed --gamma"),
    (["--method", "hglb", "--grid-n", "0"], "grid_n >= 1"),
    # given with SelectionConfig's default values, still not walked
    (["--method", "lasso", "--grid-n", "30"], "do not apply to lasso"),
    (["--method", "adalasso", "--grid-lo", "0.01"],
     "do not apply to adalasso"),
    (["--method", "adalasso", "--grid-hi", "1e4"],
     "do not apply to adalasso"),
])
def test_fit_rejects_flags_its_method_ignores(fixture_dir, capsys, flags,
                                              message):
    """A flag is honoured or rejected: adalasso validates its own gamma,
    and no grid is walked by lasso/adalasso or with a fixed --gamma."""
    assert main(["fit", "--data-y", str(fixture_dir / "y.csv"),
                 "--data-g", str(fixture_dir / "G.csv"),
                 "--groups", "4"] + flags) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("method", FIT_METHODS)
def test_fit_zero_data_gives_zero_estimate(method, tmp_path, capsys):
    """A y of zeros gives theta = 0 (and lambda = 0, where the method has
    one), without a warning, from every method: through fit at a fixed
    gamma (adalasso takes none), and through the library with gamma chosen
    on the method's own grid."""
    rng = np.random.default_rng(0)
    G = rng.standard_normal((20, 4))
    np.savetxt(tmp_path / "G.csv", G, delimiter=",")
    np.savetxt(tmp_path / "y.csv", np.zeros((20, 1)), delimiter=",")
    out = tmp_path / "fit.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--method", method,
                     "--data-y", str(tmp_path / "y.csv"),
                     "--data-g", str(tmp_path / "G.csv"), "--groups", "2",
                     "--sigma2", "1.0", "--out", str(out)]
                    + ([] if method == "adalasso" else ["--gamma", "0.5"]))
        res = ESTIMATORS[method](np.zeros(20), GroupedDesign(G, [2, 2]), 1.0,
                                 {})
    assert code == 0
    doc = json.loads(out.read_text())
    assert all(t == 0.0 for t in doc["theta"])
    assert all(l == 0.0 for l in doc["lambda"] or [])
    assert not res.theta.any()


def test_fit_dimension_mismatch_exits_2(fixture_dir, tmp_path, capsys):
    np.savetxt(tmp_path / "y.csv", np.zeros((7, 1)), delimiter=",")
    code = main(["fit", "--method", "hgla", "--data-y", str(tmp_path / "y.csv"),
                 "--data-g", str(fixture_dir / "G.csv"), "--groups", "4"])
    assert code == 2


def test_fit_unknown_method_exits_2(fixture_dir):
    code = main(["fit", "--method", "bogus",
                 "--data-y", str(fixture_dir / "y.csv"),
                 "--data-g", str(fixture_dir / "G.csv"), "--groups", "4"])
    assert code == 2


def test_fit_gamma_is_honoured_for_hgl(fixture_dir, tmp_path, capsys):
    """--gamma is a one-point grid for the hgl variants; nonpositive is a
    usage error."""
    data = ["--data-y", str(fixture_dir / "y.csv"),
            "--data-g", str(fixture_dir / "G.csv"), "--groups", "4"]
    out = tmp_path / "fit.json"
    for gamma, empty in (("1e-3", False), ("1e9", True)):
        code = main(["fit", "--method", "hgla", "--gamma", gamma,
                     "--out", str(out)] + data)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["gamma"] == float(gamma)
        assert (doc["selected"] == []) == empty
    for gamma in ("0", "-1"):
        assert main(["fit", "--method", "hglb", "--gamma", gamma] + data) == 2
        assert "--gamma must be positive" in capsys.readouterr().err


def test_fit_hglc_kkt_residual_is_taken_on_its_set(tmp_path):
    """hglc pins the blocks outside its selected set at zero, so its KKT
    residual is certified on that set (over all blocks it read 5.06 here
    at a converged fit)."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--experiment", "exp1", "--seed", "5",
                 "--out", str(sim)]) == 0
    out = tmp_path / "fit.json"
    assert main(["fit", "--method", "hglc", "--data-y", str(sim / "y.csv"),
                 "--data-g", str(sim / "G.csv"), "--groups", "4",
                 "--out", str(out)]) == 0
    diag = json.loads(out.read_text())["diagnostics"]
    assert diag["converged"] is True
    assert diag["kkt_residual"] <= 1e-5 * (1 + 100)


def _wide_problem(tmp_path, seed, run):
    """CSV files of one p=40, k=4, n=100 exp1 problem and its noise
    variance, the shape the wide benchmark fits through the CLI."""
    from groupsparse.experiments import McConfig, gen_problem
    design, _, y, sigma2 = gen_problem(McConfig(
        experiment="exp1", runs=1, master_seed=seed, estimators=[], p=40,
        k=4, n=100), run)
    np.savetxt(tmp_path / "G.csv", design.G, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y.reshape(-1, 1), delimiter=",")
    return ["--data-g", str(tmp_path / "G.csv"), "--data-y",
            str(tmp_path / "y.csv"), "--groups", "4", "--sigma2",
            repr(sigma2)]


def test_fit_lasso_at_gamma_zero_interpolates_wide_designs(tmp_path):
    """At gamma = 0 with m > n the Lasso interpolates; the certificate
    allows the rounding left in the off-support correlations (5.7e-15
    here, which failed it and exited 3)."""
    data = _wide_problem(tmp_path, 0, 0)
    out = tmp_path / "fit.json"
    assert main(["fit", "--method", "lasso", "--gamma", "0",
                 "--out", str(out)] + data) == 0
    G = read_csv_matrix(str(tmp_path / "G.csv"))
    y = read_csv_matrix(str(tmp_path / "y.csv")).ravel()
    theta = np.array(json.loads(out.read_text())["theta"])
    assert np.linalg.norm(G @ theta - y) <= 1e-10 * np.linalg.norm(y)


def test_fit_hglc_converges_on_a_former_max_iter_case(tmp_path):
    """This hglc polish stopped unconverged at 1000 quasi-Newton
    iterations and exited 3; projected Newton converges."""
    out = tmp_path / "fit.json"
    assert main(["fit", "--method", "hglc", "--out", str(out)]
                + _wide_problem(tmp_path, 404, 3)) == 0
    diag = json.loads(out.read_text())["diagnostics"]
    assert diag["converged"] is True and diag["iterations"] < 100
    assert diag["kkt_residual"] <= 1e-5 * (1 + 100)


def test_fit_hglb_reports_kkt_residual_and_objective(fixture_dir, tmp_path):
    out = tmp_path / "fit.json"
    assert main(["fit", "--method", "hglb", "--data-y",
                 str(fixture_dir / "y.csv"), "--data-g",
                 str(fixture_dir / "G.csv"), "--groups", "4",
                 "--out", str(out)]) == 0
    diag = json.loads(out.read_text())["diagnostics"]
    assert diag["converged"] is True
    assert diag["kkt_residual"] <= 1e-5 * (1 + 100)
    assert np.isfinite(diag["objective"])


def test_fit_unconverged_polish_exits_3(tmp_path, monkeypatch):
    """converged is False when the polish runs out of iterations, and the
    fit exits 3."""
    import groupsparse.hglasso as hg
    monkeypatch.setattr(hg, "_MAX_ITER", 1)
    data = _wide_problem(tmp_path, 404, 3)
    for method in ("hglb", "hglc"):
        out = tmp_path / ("%s.json" % method)
        assert main(["fit", "--method", method, "--out", str(out)]
                    + data) == 3
        diag = json.loads(out.read_text())["diagnostics"]
        assert diag["converged"] is False and diag["iterations"] == 1


def test_fit_one_row_cannot_be_split_exits_2(tmp_path, capsys):
    """The validated estimators need a validation half; one row has none."""
    np.savetxt(tmp_path / "G.csv", [[1.0, 2.0]], delimiter=",")
    np.savetxt(tmp_path / "y.csv", [[3.0]], delimiter=",")
    for method in ("lasso", "adalasso", "hgla"):
        assert main(["fit", "--method", method, "--sigma2", "1",
                     "--data-y", str(tmp_path / "y.csv"),
                     "--data-g", str(tmp_path / "G.csv"),
                     "--groups", "1"]) == 2
        assert "degenerate split" in capsys.readouterr().err


def test_fit_wide_design_requires_sigma2(tmp_path):
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "G.csv", rng.standard_normal((4, 6)), delimiter=",")
    np.savetxt(tmp_path / "y.csv", np.zeros((4, 1)), delimiter=",")
    code = main(["fit", "--method", "mkl", "--data-y", str(tmp_path / "y.csv"),
                 "--data-g", str(tmp_path / "G.csv"), "--groups", "3",
                 "--gamma", "1.0"])
    assert code == 2


# ------------------------------------------------------------
# benchmark
# ------------------------------------------------------------

def test_benchmark_smoke_and_determinism(tmp_path, capsys):
    args = ["benchmark", "--experiment", "exp1", "--runs", "2", "--seed", "7",
            "--estimators", "oracle", "--out", str(tmp_path / "rep")]
    assert main(args) == 0
    out1 = capsys.readouterr().out
    assert main(args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert "oracle" in out1
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert len(doc["per_run"]) == 2
    assert (tmp_path / "rep.csv").exists()


def test_a_negative_seed_exits_2(tmp_path, capsys):
    """A negative --seed is a usage error (NumPy's SeedSequence takes no
    negative entropy): exit 2 and one line naming --seed, and simulate
    creates no --out directory."""
    out = tmp_path / "sim"
    for argv in (["simulate", "--seed", "-1", "--out", str(out)],
                 ["benchmark", "--seed", "-1", "--runs", "1",
                  "--estimators", "oracle"]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert "--seed" in err and _one_line(err), argv[0]
    assert not out.exists()


def test_benchmark_zero_runs_exits_2(capsys):
    assert main(["benchmark", "--runs", "0", "--estimators", "oracle"]) == 2


def test_benchmark_unknown_estimator_exits_2(capsys):
    assert main(["benchmark", "--runs", "1", "--estimators", "bogus"]) == 2
    assert "registry" in capsys.readouterr().err


@pytest.mark.parametrize("names", ["", ",", "oracle,oracle"])
def test_benchmark_estimator_list_needs_each_name_once(tmp_path, capsys,
                                                        names):
    """--estimators with no name exits 2 instead of fitting nothing, and a
    repeated name exits 2 instead of fitting and counting twice; both fail
    before the campaign, so --out is not touched."""
    out = tmp_path / "rep"
    assert main(["benchmark", "--runs", "1", "--estimators", names,
                 "--out", str(out)]) == 2
    assert "--estimators" in capsys.readouterr().err
    assert not (tmp_path / "rep.json").exists()


def test_benchmark_threads_come_from_the_flag_alone(monkeypatch, capsys):
    """--threads below 1 exits 2 instead of running serially, and its
    default is 1 whatever the environment holds."""
    assert main(["benchmark", "--runs", "1", "--estimators", "oracle",
                 "--threads", "0"]) == 2
    assert "threads" in capsys.readouterr().err
    monkeypatch.setenv("SPARSEGRP_THREADS", "x")
    assert main(["benchmark", "--runs", "1", "--estimators", "oracle"]) == 0


# ------------------------------------------------------------
# arx
# ------------------------------------------------------------

@pytest.fixture
def arx_csv(tmp_path):
    from groupsparse import gen_arx_series
    s = gen_arx_series(T=400, seed=4)
    p = tmp_path / "series.csv"
    np.savetxt(p, s, delimiter=",")
    return p


def test_arx_end_to_end(arx_csv, tmp_path, capsys):
    out = tmp_path / "arx"
    code = main(["arx", "--data", str(arx_csv), "--method", "hglc",
                 "--q", "10", "--horizon", "4", "--out", str(out)])
    assert code == 0
    table = read_csv_matrix(str(out) + ".csv")
    assert table.shape == (4, 2)                  # K rows
    with open(str(out) + ".json") as fh:
        doc = json.load(fh)
    assert doc["cod"]["1"] > 0.0
    assert len(doc["block_norms"]) == 4           # output + 3 inputs
    assert "COD_1" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["lasso", "glasso"])
def test_arx_takes_every_fit_method(arx_csv, tmp_path, method):
    """arx fits through the registry call of fit, so it has its methods."""
    out = tmp_path / "arx"
    assert main(["arx", "--data", str(arx_csv), "--method", method,
                 "--q", "10", "--horizon", "2", "--out", str(out)]) == 0
    with open(str(out) + ".json") as fh:
        assert json.load(fh)["cod"]["1"] > 0.0


def test_arx_lasso_selected_lists_blocks(arx_csv, tmp_path):
    """arx reports selected blocks for every method, next to the block
    norms: the Lasso's selected columns are mapped to their blocks."""
    out = tmp_path / "arx"
    assert main(["arx", "--data", str(arx_csv), "--method", "lasso",
                 "--q", "10", "--horizon", "2", "--out", str(out)]) == 0
    with open(str(out) + ".json") as fh:
        doc = json.load(fh)
    assert len(doc["block_norms"]) == 4
    assert doc["selected"] and all(0 <= i < 4 for i in doc["selected"])
    assert doc["selected"] == [i for i, nrm in enumerate(doc["block_norms"])
                               if nrm > 0]


def test_arx_sigma2_reaches_hgl_selection(tmp_path, capsys):
    """300 samples with q=20: the selection split has 65 rows for 80
    regressors, so sigma2 cannot be estimated there.  Without --sigma2 this
    is a usage error; with it the fit runs."""
    from groupsparse import gen_arx_series
    p = tmp_path / "series.csv"
    np.savetxt(p, gen_arx_series(T=300, seed=4), delimiter=",")
    args = ["arx", "--data", str(p), "--method", "hgla", "--q", "20",
            "--horizon", "2", "--out", str(tmp_path / "arx")]
    assert main(args) == 2
    assert "supply sigma2" in capsys.readouterr().err
    assert main(args + ["--sigma2", "0.1"]) == 0
    assert main(args + ["--sigma2", "0"]) == 2


def test_arx_mkl_selection_stage_uses_sigma2(tmp_path, capsys):
    """The selection stage that centres mkl's gamma grid gets --sigma2;
    without it a selection split too short to estimate sigma2 exits 2."""
    from groupsparse import gen_arx_series
    p = tmp_path / "series.csv"
    np.savetxt(p, gen_arx_series(T=300, seed=4), delimiter=",")
    args = ["arx", "--data", str(p), "--method", "mkl", "--q", "20",
            "--horizon", "2", "--out", str(tmp_path / "arx")]
    assert main(args) == 2
    assert "supply sigma2" in capsys.readouterr().err
    assert main(args + ["--sigma2", "0.1"]) == 0


def test_fit_mkl_glasso_selection_stage_uses_sigma2(tmp_path, capsys):
    """60 rows and 40 columns: the full data can estimate sigma2, the
    30-row selection split cannot."""
    rng = np.random.default_rng(2)
    G = rng.standard_normal((60, 40))
    y = G[:, :4] @ np.array([2.0, -1.0, 1.5, 0.5]) \
        + 0.3 * rng.standard_normal(60)
    np.savetxt(tmp_path / "G.csv", G, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y.reshape(-1, 1), delimiter=",")
    data = ["--data-y", str(tmp_path / "y.csv"),
            "--data-g", str(tmp_path / "G.csv"), "--groups", "4",
            "--out", str(tmp_path / "fit.json")]
    for method in ("mkl", "glasso"):
        assert main(["fit", "--method", method] + data) == 2
        assert "supply sigma2" in capsys.readouterr().err
        assert main(["fit", "--method", method, "--sigma2", "0.09"]
                    + data) == 0
        assert 0 in json.loads((tmp_path / "fit.json").read_text())[
            "selected"]


def test_seed_is_rejected_where_unused(fixture_dir, tmp_path, capsys):
    """Only simulate and benchmark draw random numbers."""
    assert main(["fit", "--seed", "3", "--data-y", str(fixture_dir / "y.csv"),
                 "--data-g", str(fixture_dir / "G.csv"),
                 "--groups", "4"]) == 2
    assert "--seed" in capsys.readouterr().err
    np.savetxt(tmp_path / "s.csv", np.ones((40, 2)), delimiter=",")
    assert main(["arx", "--seed", "3", "--data",
                 str(tmp_path / "s.csv")]) == 2
    assert "--seed" in capsys.readouterr().err


def test_arx_q_too_large_exits_2(tmp_path, capsys):
    np.savetxt(tmp_path / "s.csv", np.ones((10, 2)), delimiter=",")
    code = main(["arx", "--data", str(tmp_path / "s.csv"), "--q", "20"])
    assert code == 2
    assert "training part: series length 5" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--split", "-0.3"), ("--split", "nan"), ("--split", "1"),
    ("--horizon", "0"), ("--horizon", "-2"), ("--q", "0"),
])
def test_arx_rejects_out_of_range_flags(tmp_path, capsys, flag, value):
    """--split must be finite and in (0, 1), --horizon and --q >= 1.  An
    out-of-range value exits 2, names its flag and writes no report (a
    negative split trained on a prefix of the rows, a NaN one raised, and
    a horizon below 1 wrote an empty report)."""
    from groupsparse import gen_arx_series
    np.savetxt(tmp_path / "s.csv", gen_arx_series(T=200, seed=4),
               delimiter=",")
    flags = dict([("--q", "3"), (flag, value)])
    code = main(["arx", "--data", str(tmp_path / "s.csv"), "--out",
                 str(tmp_path / "arx")] + [t for kv in flags.items()
                                            for t in kv])
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.glob("arx*"))


# ------------------------------------------------------------
# config file precedence
# ------------------------------------------------------------

def test_config_file_supplies_defaults_flags_win(fixture_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "mkl", "gamma": 0.5}))
    out = tmp_path / "fit.json"
    # config supplies method/gamma
    code = main(["--config", str(cfg), "fit",
                 "--data-y", str(fixture_dir / "y.csv"),
                 "--data-g", str(fixture_dir / "G.csv"),
                 "--groups", "4", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["gamma"] == 0.5
    # explicit flag beats the config value
    code = main(["--config", str(cfg), "fit", "--method", "mkl",
                 "--gamma", "1.5",
                 "--data-y", str(fixture_dir / "y.csv"),
                 "--data-g", str(fixture_dir / "G.csv"),
                 "--groups", "4", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["gamma"] == 1.5


def test_config_values_take_their_flags_type(fixture_dir, tmp_path,
                                             capsys):
    """A config value is converted by its flag's type, as if typed on the
    command line: {"sigma2": "1"} fits like --sigma2 1, and a value that
    does not convert ({"gamma": "abc"}, a fractional --grid-n) exits 2
    with the key named.  A key of another command ("seed" for fit) is
    ignored; a key of no command (a misspelt "gama", the parser's own
    "func" and "command") exits 2 with the key named."""
    data = ["--data-y", str(fixture_dir / "y.csv"),
            "--data-g", str(fixture_dir / "G.csv"), "--groups", "4"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma2": "1"}))
    out, ref = tmp_path / "fit.json", tmp_path / "ref.json"
    assert main(["--config", str(cfg), "fit", "--method", "lasso",
                 "--out", str(out)] + data) == 0
    assert main(["fit", "--method", "lasso", "--sigma2", "1",
                 "--out", str(ref)] + data) == 0
    assert json.loads(out.read_text()) == json.loads(ref.read_text())
    # a key of another command is ignored
    cfg.write_text(json.dumps({"seed": 3}))
    assert main(["--config", str(cfg), "fit", "--method", "lasso",
                 "--sigma2", "1", "--out", str(out)] + data) == 0
    assert json.loads(out.read_text()) == json.loads(ref.read_text())
    for bad in ({"gamma": "abc"}, {"grid_n": 2.5}, {"sigma2": [1]},
                {"gama": 0.5}, {"func": 1}, {"command": "x"}):
        cfg.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["--config", str(cfg), "fit", "--method", "lasso"]
                    + data) == 2
        assert repr(next(iter(bad))) in capsys.readouterr().err


def test_config_values_respect_choices(tmp_path, capsys):
    """A config value outside its flag's choices exits 2 with the key
    named, as the same value typed on the command line does."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "bogus"}))
    assert main(["--config", str(cfg), "simulate",
                 "--out", str(tmp_path / "sim")]) == 2
    assert "'experiment'" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_abbreviated_flags_are_rejected(fixture_dir, tmp_path, capsys):
    """A flag is spelled in full or rejected with exit 2, so an explicit
    flag always wins over --config: {"sigma2": 5.0} with --sigma2 0.5
    fits at 0.5, and --sigma (a prefix of --sigma2) is an error with or
    without the file."""
    data = ["--method", "lasso", "--data-y", str(fixture_dir / "y.csv"),
            "--data-g", str(fixture_dir / "G.csv"), "--groups", "4"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma2": 5.0}))
    out, ref = tmp_path / "fit.json", tmp_path / "ref.json"
    assert main(["--config", str(cfg), "fit", "--sigma2", "0.5",
                 "--out", str(out)] + data) == 0
    assert main(["fit", "--sigma2", "0.5", "--out", str(ref)] + data) == 0
    assert json.loads(out.read_text()) == json.loads(ref.read_text())
    for config in (["--config", str(cfg)], []):
        capsys.readouterr()
        assert main(config + ["fit", "--sigma", "0.5"] + data) == 2
        assert "--sigma" in capsys.readouterr().err
    assert main(["--conf", str(cfg), "fit", "--sigma2", "0.5"] + data) == 2


def test_one_parser_serves_every_call_of_a_process(fixture_dir, tmp_path,
                                                 capsys):
    """main builds its parser once per process.  In one process a --config
    fit, an argparse error and a plain fit give the exit codes, output and
    messages that each gives with a parser of its own, as in a fresh
    process: no config value or parse state carries over."""
    from groupsparse.cli import build_parser
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "lasso", "sigma2": 2.0}))
    data = ["--data-y", str(fixture_dir / "y.csv"), "--data-g",
            str(fixture_dir / "G.csv"), "--groups", "4"]
    calls = [["--config", str(cfg), "fit"] + data,
             ["fit", "--grid-n", "many"] + data,
             ["fit"] + data]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr()

    shared = [run(argv) for argv in calls]
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 2, 0]
    lasso, hgla = (json.loads(io.out) for _, io in (shared[0], shared[2]))
    assert "breakpoints" in lasso["diagnostics"]
    assert hgla["diagnostics"]["variant"] == "hgla"


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for text in ("{not json", "[1]"):     # malformed, not an object
        cfg.write_text(text)
        assert main(["--config", str(cfg), "benchmark", "--runs", "1",
                     "--estimators", "oracle"]) == 2
