"""groupsparse benchmark: timed estimator fits on named workloads.

    python3 benchmarks/run.py --workload exp1 --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Set-up (imports, problem generation, CSV writing) is
timed on its own; then problems are fitted one after another, each
estimator timed on its own, until --seconds have passed (at least one
problem).  Every fit's output is checked.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it carries details (machine, raw wall times,
sample counts, per-fit records).

Reported times are scaled to a nominal machine speed: after every fit a
fixed calibration kernel is timed, and every time is multiplied by
CAL_NOMINAL_S / (the run's mean calibration time).  See README.md.

--trace 0 reports the end-to-end metrics.  --trace 1 fits problems untraced
for half of --seconds, fits the same problems again with span tracing
installed (tracing.py), checks that both passes give bit-identical
accuracy, and reports the per-layer metrics and the tracing overhead.
Spans are written to .bench_out/trace-<workload>.npz.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# one BLAS thread, set before NumPy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg import cho_factor, cho_solve  # noqa: E402
import groupsparse  # noqa: E402
from groupsparse import cli, experiments as ex  # noqa: E402
from groupsparse.model import EstimateResult  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

from tracing import Tracer, per_layer  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 3


# ============================================================
# calibration
# ============================================================

# Typical mean calibration time on the machine the benchmark was defined on
# (2-vCPU Intel Xeon at 2.1 GHz, one BLAS thread); only a scale constant.
CAL_NOMINAL_S = 0.006
_CAL_A = np.random.default_rng(0).standard_normal((60, 60))
_CAL_A = _CAL_A @ _CAL_A.T + 60.0 * np.eye(60)


def calibrate():
    """Seconds taken by a fixed mix of small Cholesky solves and
    interpreted NumPy calls, the same kind of work the estimators do.  It
    does not touch groupsparse, so its time moves only with the machine."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(16):
        v = cho_solve(cho_factor(_CAL_A, lower=True), _CAL_A[:, i % 60])
        for j in range(60):
            acc += float(v[j] * v[j]) + float(np.sum(_CAL_A[j, :4]))
    return time.perf_counter() - t0


class Meter:
    """Times fits, recording a calibration sample after each one."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.cal = []

    def fit(self, name, call):
        """Run one fit; returns (output, seconds, error message or None)."""
        span = self.tracer.begin("bench.fit." + name) if self.tracer else None
        t0 = time.perf_counter()
        try:
            out, err = call(), None
        except Exception as exc:  # a failed fit is counted, not fatal
            out, err = None, "%s: %s" % (type(exc).__name__, exc)
        secs = time.perf_counter() - t0
        if self.tracer:
            self.tracer.finish(span)
        self.cal.append(calibrate())
        return out, secs, err


# ============================================================
# output checks
# ============================================================

def _check(rec, res, design, theta_true, selected_columns):
    """Fill rec's accuracy fields and return the failed check, if any."""
    theta = np.asarray(res.theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        return "theta is not finite"
    outside = np.ones(design.m, dtype=bool)
    outside[list(selected_columns)] = False
    if np.any(theta[outside] != 0.0):
        return "nonzero coefficient outside the selected blocks"
    rec["pct_error"] = ex.percentage_error(theta, theta_true)
    rec["zero_pattern"] = ex.zero_pattern(res, design)
    if not np.isfinite(rec["pct_error"]):
        return "percentage error is not finite"
    return None


def _score(rec, res, design, theta_true, selected_columns):
    """Check one fit's output; a failed check makes the fit both failed and
    wrong (a fit that raised or exited nonzero is failed, not wrong)."""
    rec["error"] = rec["wrong"] = _check(rec, res, design, theta_true,
                                         selected_columns)


def _block_columns(design, blocks):
    return [j for i in blocks for j in range(design.slices[i].start,
                                               design.slices[i].stop)]


def _record(problem, name, secs, err, theta_true):
    true_zeros = [float(theta_true.block(i) @ theta_true.block(i)) == 0.0
                  for i in range(len(theta_true.group_sizes))]
    return {"problem": problem, "method": name, "s": secs, "error": err,
            "wrong": None, "true_zeros": true_zeros, "pct_error": None,
            "zero_pattern": None}


# ============================================================
# workloads
# ============================================================

class MonteCarlo:
    """run_monte_carlo's per-problem semantics (gen_problem, then
    estimate_sigma2_ls, then the estimators in order sharing one ctx), with
    each estimator fit timed on its own."""

    def __init__(self, estimators, pool, **shape):
        self.estimators = estimators
        self.pool = pool
        self.shape = shape

    def setup(self, seed, count, workdir):
        cfg = ex.McConfig(experiment="exp1", runs=1, master_seed=seed,
                          estimators=list(self.estimators), **self.shape)
        return [(r, ex.gen_problem(cfg, r)) for r in range(count)]

    def run(self, problem, meter):
        r, (design, theta_true, y, _) = problem
        sigma2 = ex.estimate_sigma2_ls(y, design.G)
        ctx = {"theta_true": theta_true}
        recs = []
        for name in self.estimators:
            res, secs, err = meter.fit(name, lambda: ex.ESTIMATORS[name](
                y, design, sigma2, ctx))
            rec = _record(r, name, secs, err, theta_true)
            if err is None:
                # solve_lasso reports coefficient indices, the others blocks
                cols = res.selected if name == "lasso" else \
                    _block_columns(design, res.selected)
                _score(rec, res, design, theta_true, cols)
            recs.append(rec)
        return recs


class Wide(MonteCarlo):
    """exp1 generator with more columns than rows, fitted through the CLI
    (`groupsparse fit` with the generator's noise variance) on CSV files
    written during set-up."""

    def setup(self, seed, count, workdir):
        out = []
        for r, (design, theta, y, sigma2) in super().setup(seed, count,
                                                          workdir):
            g_path = os.path.join(workdir, "G%d.csv" % r)
            y_path = os.path.join(workdir, "y%d.csv" % r)
            cli.write_csv_matrix(g_path, design.G)
            cli.write_csv_matrix(y_path, y.reshape(-1, 1))
            out.append((r, (design, theta, g_path, y_path, sigma2)))
        return out

    def run(self, problem, meter):
        r, (design, theta_true, g_path, y_path, sigma2) = problem
        recs = []
        for name in self.estimators:
            argv = ["fit", "--method", name, "--data-g", g_path,
                    "--data-y", y_path, "--groups", str(self.shape["k"]),
                    "--sigma2", repr(sigma2)]
            buf = io.StringIO()

            def call():
                with contextlib.redirect_stdout(buf):
                    return cli.main(argv)
            code, secs, err = meter.fit(name, call)
            if err is None and code != 0:
                err = "fit exited with code %d" % code
            rec = _record(r, name, secs, err, theta_true)
            if err is None:
                doc = json.loads(buf.getvalue())
                res = EstimateResult(theta=np.array(doc["theta"]),
                                     lam=np.array(doc["lambda"]),
                                     selected=doc["selected"])
                _score(rec, res, design, theta_true,
                       _block_columns(design, res.selected))
            recs.append(rec)
        return recs


# Shapes are fixed by the benchmark definition; `pool` problems are made in
# set-up, more than a run reaches at today's speed (a faster program cycles).
WORKLOADS = {
    "exp1": MonteCarlo(("hgla", "hglb", "hglc", "mkl", "glasso", "lasso"),
                       pool=64, p=10, k=4, n=100),
    "wide": Wide(("hgla", "hglb", "hglc"), pool=24, p=40, k=4, n=100),
}
# every estimator some workload runs, for the per-estimator metrics
ESTIMATOR_NAMES = tuple(dict.fromkeys(
    name for w in WORKLOADS.values() for name in w.estimators))


# ============================================================
# timed passes and metrics
# ============================================================

def timed_pass(workload, problems, meter, seconds, count=None):
    """Fit problems in order until `seconds` have passed (at least one
    problem), or exactly `count` problems.  Returns (records, wall, n)
    with the calibration time taken out of wall."""
    records = []
    n = 0
    t0 = time.perf_counter()
    cal0 = len(meter.cal)
    while (n < count) if count is not None else \
            (n == 0 or time.perf_counter() - t0 < seconds):
        for rec in workload.run(problems[n % len(problems)], meter):
            rec["repeat"] = n >= len(problems)
            records.append(rec)
        n += 1
    wall = time.perf_counter() - t0 - sum(meter.cal[cal0:])
    return records, wall, n


def _ok(records):
    return [r for r in records if r["error"] is None]


def _median_fit_s(records, name):
    secs = [r["s"] for r in _ok(records) if r["method"] == name]
    return statistics.median(secs) if secs else 0.0


def _tail(secs):
    """Highest-percentile fit time with at least ten fits beyond it (the
    largest one when there are fewer than eleven fits)."""
    secs = sorted(secs)
    idx = len(secs) - 11 if len(secs) >= 11 else len(secs) - 1
    return secs[idx], 100.0 * (idx + 1) / len(secs), len(secs) - 1 - idx


def _accuracy(records, name=None):
    """(mean percentage error, sparsity index) over first-pass fits,
    optionally of one estimator; zeros when there are none."""
    rows = [r for r in _ok(records) if not r["repeat"]
            and (name is None or r["method"] == name)]
    if not rows:
        return 0.0, 0.0
    return (float(np.mean([r["pct_error"] for r in rows])),
            ex.sparsity_index([(r["zero_pattern"], r["true_zeros"])
                               for r in rows]))


def end_to_end(records, wall, setup_s, scale):
    ok = _ok(records)
    pct_error, sparsity = _accuracy(records)
    return {
        "setup_s": (setup_s * scale, "s"),
        "fits_per_s": (len(ok) / (wall * scale), "1/s"),
        "fit_s.hgla": (_median_fit_s(records, "hgla") * scale, "s"),
        "fit_s.hglb": (_median_fit_s(records, "hglb") * scale, "s"),
        "pct_error_mean": (pct_error, "%"),
        "sparsity_index": (sparsity, "%"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_estimator(records, untraced_records, scale):
    out = {}
    for name in ESTIMATOR_NAMES:
        pct_error, sparsity = _accuracy(records, name)
        out["experiments.pct_error." + name] = (pct_error, "%")
        out["experiments.sparsity." + name] = (sparsity, "%")
        out["estimator.%s.fit_s" % name] = (
            _median_fit_s(untraced_records, name) * scale, "s")
    return out


def _accuracy_key(records):
    return [(r["problem"], r["method"], r["pct_error"], r["zero_pattern"])
            for r in records]


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas["version"])
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def fit_summary(records, scale):
    ok = _ok(records)
    tail, pct, beyond = _tail([r["s"] for r in ok])
    return {
        "fits": len(ok),
        "fit_s": {name: {"median": _median_fit_s(records, name) * scale,
                         "count": sum(r["method"] == name for r in ok)}
                  for name in ESTIMATOR_NAMES},
        "fit_s_tail": {"value": tail * scale, "percentile": pct,
                       "beyond": beyond},
        "failed_frac": 1.0 - len(ok) / len(records),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if os.path.dirname(os.path.abspath(groupsparse.__file__)) != \
            os.path.join(SRC, "groupsparse"):
        sys.exit("groupsparse was not imported from %s" % SRC)
    workload = WORKLOADS[args.workload]
    meter = Meter()

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        gen_s = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            problems = workload.setup(args.seed, workload.pool, work)
            gen_s.append(time.perf_counter() - t0)
            meter.cal.append(calibrate())
        setup_s = IMPORT_S + statistics.median(gen_s)
        detail = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "machine": machine(),
                  "setup": {"import_s": IMPORT_S, "generate_s": gen_s}}
        records, wall, n = timed_pass(
            workload, problems, meter,
            args.seconds / 2.0 if args.trace else args.seconds)
        # the machine switches between a fast and a slow state; a fit's time
        # moves linearly with the share of time spent in each, and so does
        # the mean calibration time (the median jumps between the two)
        scale = CAL_NOMINAL_S / statistics.fmean(meter.cal)
        if not args.trace:
            metrics = end_to_end(records, wall, setup_s, scale)
            attempted, correct = records, True
        else:
            tracer = Tracer()
            with tracer:
                traced_problems = workload.setup(
                    args.seed, min(n, workload.pool), work)
                traced, traced_wall, _ = timed_pass(
                    workload, traced_problems, Meter(tracer), 0.0, count=n)
            tracer.save(os.path.join(OUT_DIR,
                                     "trace-%s.npz" % args.workload))
            correct = _accuracy_key(traced) == _accuracy_key(records)
            untraced_rate = len(_ok(records)) / wall
            traced_rate = len(_ok(traced)) / traced_wall
            metrics = {k: (v * scale if u == "s" else v, u)
                       for k, (v, u) in per_layer(tracer, n).items()}
            metrics.update(per_estimator(traced, records, scale))
            metrics["trace.fits_per_s.untraced"] = (untraced_rate / scale,
                                                    "1/s")
            metrics["trace.fits_per_s.traced"] = (traced_rate / scale, "1/s")
            metrics["trace.overhead"] = (untraced_rate / traced_rate - 1.0,
                                         "ratio")
            attempted = records + traced
            detail.update(traced_wall_s=traced_wall, spans=len(tracer.start),
                          accuracy_identical=correct)
        detail.update(problems=n, wall_s=wall, scale=scale,
                      calibration_s=meter.cal, **fit_summary(records, scale))

    failed = [r for r in attempted if r["error"] is not None]
    for r in failed:
        print("failed: problem %d %s: %s" % (r["problem"], r["method"],
                                             r["error"]), file=sys.stderr)
    correct = correct and not any(r["wrong"] for r in attempted)
    detail["records"] = records
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
