"""The three benchmark workloads.

Each is a closed loop with one client: the next operation starts when the
previous one has returned.  A workload draws its inputs from the run's seed
(``job``), performs one timed operation on them (``run``) and checks the
operation's output afterwards (``check``), so checking never sits inside a
timed region.  ``setup`` is what the program pays before the loop and is
timed as ``setup_s``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np

from reference import FACTORS, FIXTURE_OFFSETS

SIGMA = 0.01  # gauge noise of the paper's accuracy study, mm
# Reduced from the paper's 10000 x 20: each replication is one batch of
# TABLE3_RUNS, so the batched path is the same, and a pass is short enough for
# a run to hold many of them.
TABLE3_RUNS, TABLE3_REPS = 1000, 1
TABLE3_METHODS = ("nonlinear-six", "nonlinear-twelve")
TABLE3_OFFSETS = (0.1, 1.0)
# Statistical tolerance of a table3 pooled std against the analytic factor.
# At 1000 runs one standard error is ~1% of the value; 6% is ~6 of them.
TABLE3_REL_TOL = 0.06
# Largest accepted |error| of one calibration, in analytic standard deviations.
Z_MAX = 7.0

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def table3(pkg, geom, seed: int) -> list:
    """The Table 3 preset as ``orthocal montecarlo --reproduce table3`` runs it:
    ``[(method, offset, pooled_std, failed_runs), ...]``."""
    out = []
    for method in TABLE3_METHODS:
        for off in TABLE3_OFFSETS:
            rep = pkg.monte_carlo([off] * 3, SIGMA, TABLE3_RUNS, TABLE3_REPS, method, seed, geom)
            out.append((method, off, rep.pooled_std, rep.failed_runs))
    return out


def check_table3(rows) -> str | None:
    for method, off, pooled, failed in rows:
        target = FACTORS["six" if method.endswith("six") else "twelve"] * SIGMA
        if failed:
            return f"{method} at {off} mm: {failed} runs failed"
        if abs(pooled - target) > TABLE3_REL_TOL * target:
            return f"{method} at {off} mm: pooled std {pooled:.6f} vs analytic {target:.6f}"
    return None


class Workload:
    """Defaults shared by the workloads; each overrides what differs.

    ``pkg`` is the package the operations call: ``orthocal`` itself, or the
    frozen yardstick copy (``yardstick.py``) that runs the same inputs."""

    traced = False  # set while the span tracer is installed

    def __init__(self, seed: int, workdir: str, pkg) -> None:
        self.seed = seed
        self.workdir = workdir
        self.oc = pkg
        # typed errors, or the known bare ValueError
        self.known_failures = (ValueError, pkg.OrthoglideError)

    def twin(self, pkg) -> "Workload":
        """The same workload on another package, set up to run this one's jobs."""
        other = type(self)(self.seed, self.workdir, pkg)
        other.setup()
        return other

    def domain_probe(self):
        """Untimed checks over inputs outside the timed stream: ``(failures
        by class, problems)``, or None for a workload without any."""
        return None

    def items(self, out) -> int:
        return 1

    def job_class(self, job):
        """Jobs of one class take about the same time."""
        return None

    def check_all(self) -> list:
        """Checks over all outputs of the run, after the per-operation ones."""
        return []

    def same(self, a, b) -> bool:
        return a == b


class McTable3(Workload):
    """Batched Monte-Carlo: one operation is one table3 pass, all four cells."""

    def setup(self) -> None:
        self.geom = self.oc.Geometry.prototype()
        for method in TABLE3_METHODS:
            self.oc.monte_carlo([0.1] * 3, SIGMA, 50, 1, method, 0, self.geom)

    def job(self, i: int) -> int:
        # replication k of a pass draws from seed + k: strides keep passes apart
        return 1_000_000 * (self.seed + 1) + TABLE3_REPS * i

    def run(self, mc_seed: int):
        return table3(self.oc, self.geom, mc_seed)

    def items(self, rows) -> int:
        return sum(TABLE3_RUNS * TABLE3_REPS - failed for *_, failed in rows)

    def check(self, mc_seed, rows) -> str | None:
        return check_table3(rows)


# method -> (six-equation scheme?, estimator)
STREAM_METHODS = {
    "linear6": (True, "linear"),
    "linear12": (False, "linear"),
    "nonlinear6": (True, "nonlinear"),
    "nonlinear12": (False, "nonlinear"),
    "nonlinear6-exact": (True, "exact"),
}
PAPER_SCALE = 1.0  # |offset| bound of the timed jobs, mm, as in the paper
# Untimed jobs per run drawn over the whole validity domain |offset| <= L/10.
# Some hit a known defect: a Gauss-Newton trial step leaves the domain and
# check_offsets raises a bare ValueError.  They are counted by class in the
# run details, apart from the timed stream, in which every operation must
# succeed so that ``failed`` counts regressions only.
DOMAIN_PROBE_JOBS = 200


class CalibrateStream(Workload):
    """Single calibration jobs, N = 1 each: simulate, identify, sigma_rho."""

    def setup(self) -> None:
        self.geom = self.oc.Geometry.prototype()
        self.z_paper_scale = []
        self.cov_sd = {
            "six": np.sqrt(np.diag(self.oc.offset_covariance_six(self.geom, SIGMA).V)),
            "twelve": np.sqrt(np.diag(self.oc.offset_covariance_twelve(self.geom, SIGMA).V)),
        }
        for i, method in enumerate(STREAM_METHODS):
            self.run((method, np.full(3, 0.5), i, False))

    def job(self, i: int, wide: bool = False):
        rng = np.random.default_rng([self.seed, i, wide])
        bound = self.geom.L / 10.0 if wide else PAPER_SCALE
        truth = rng.uniform(-bound, bound, 3)
        methods = tuple(STREAM_METHODS)
        return methods[i % len(methods)], truth, int(rng.integers(2**31)), wide

    def run(self, job):
        method, truth, noise_seed, _ = job
        six, kind = STREAM_METHODS[method]
        oc, geom = self.oc, self.geom
        clean = oc.predict_double_posture(truth, geom)
        if six:
            clean = oc.reduce(clean)
        m = oc.add_noise(clean, oc.NoiseModel(sigma=SIGMA, seed=noise_seed))
        if kind == "linear":
            build = oc.build_six_eq_system if six else oc.build_twelve_eq_system
            res = oc.least_squares_solve(build(geom), m)
        else:
            res = oc.nonlinear_identify(
                m, geom, jacobian="exact" if kind == "exact" else "linear"
            )
        cov = oc.offset_covariance_six if six else oc.offset_covariance_twelve
        sigma_rho = cov(geom, res.sigma_hat).sigma_rho
        return res.offsets, res.sigma_hat, sigma_rho, clean

    def _error(self, job, out):
        """Estimation error against what the estimator should return without
        noise: the truth for the exact model, the noise-free linear solution
        (which carries the linearization bias) for the linear systems."""
        method, truth, _, _ = job
        six, kind = STREAM_METHODS[method]
        offsets, _, _, clean = out
        oc = self.oc
        if kind == "linear":
            build = oc.build_six_eq_system if six else oc.build_twelve_eq_system
            truth = oc.least_squares_solve(build(self.geom), clean).offsets
        return (offsets - truth) / self.cov_sd["six" if six else "twelve"]

    def check(self, job, out) -> str | None:
        method = job[0]
        six = STREAM_METHODS[method][0]
        _, sigma_hat, sigma_rho, _ = out
        z = self._error(job, out)
        if not job[3]:
            self.z_paper_scale.append(z)
        if not np.all(np.abs(z) <= Z_MAX):
            return f"{method}: error of {np.abs(z).max():.1f} sd for truth {job[1].tolist()}"
        factor = FACTORS["six" if six else "twelve"]
        if not math.isclose(sigma_rho, factor * sigma_hat, rel_tol=1e-9):
            return f"{method}: sigma_rho {sigma_rho} is not {factor} * sigma_hat"
        return None

    def check_all(self) -> list:
        """The errors of all paper-scale jobs must be distributed as the
        analytic covariance says: root-mean-square z near one."""
        z = self.z_paper_scale
        if len(z) < 100:
            return []
        rms = float(np.sqrt(np.mean(np.square(z))))
        if not 0.85 <= rms <= 1.15:
            return [f"rms of {len(z)} normalized errors is {rms:.3f}, expected ~1"]
        return []

    def same(self, a, b) -> bool:
        return np.array_equal(a[0], b[0]) and a[1:3] == b[1:3]

    def job_class(self, job):
        return job[0]

    def domain_probe(self):
        failures, problems = Counter(), []
        for i in range(DOMAIN_PROBE_JOBS):
            job = self.job(i, wide=True)
            try:
                out = self.run(job)
            except self.known_failures as exc:
                failures[type(exc).__name__] += 1
                continue
            except Exception as exc:
                problems.append(f"domain probe: unexpected {type(exc).__name__}: {exc}")
                continue
            problem = self.check(job, out)
            if problem:
                problems.append("domain probe: " + problem)
        return dict(failures), problems


def cli_env(pkg) -> dict:
    """Environment in which ``python -m <pkg>`` imports ``pkg`` from where
    this process did."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__)))
    env["PYTHONPATH"] = root + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env) -> tuple[int, str, int]:
    """Run a process to completion; returns exit code, stdout and peak RSS (KiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss


class CliCold(Workload):
    """One ``python -m orthocal`` process at a time, from interpreter start."""

    def __init__(self, seed: int, workdir: str, pkg) -> None:
        super().__init__(seed, workdir, pkg)
        self.calls = 0
        self._expected_cache: dict = {}
        self.child_spans = os.path.join(workdir, "child-spans.jsonl")
        self.peak_rss_kib = 0

    def setup(self) -> None:
        oc = self.oc
        self.geom = oc.Geometry.prototype()
        self.env = cli_env(oc)
        rng = np.random.default_rng([self.seed, 7])
        self.truth = {"full": rng.uniform(-1, 1, 3), "single": rng.uniform(-1, 1, 3)}
        noise = oc.NoiseModel(sigma=SIGMA, seed=int(rng.integers(2**31)))
        self.files = {
            "full": oc.add_noise(oc.predict_double_posture(self.truth["full"], self.geom), noise),
            "single": oc.add_noise(oc.predict_single_posture(self.truth["single"], self.geom), noise),
        }
        self.paths = {}
        for key, m in self.files.items():
            self.paths[key] = os.path.join(self.workdir, f"{key}.json")
            oc.write_measurement_file(self.paths[key], oc.measurement_to_dict(m))
        self.commands = [
            ("calibrate", name, "--method", method)
            for name in FIXTURE_OFFSETS
            for method in ("linear6", "nonlinear6")
        ] + [
            ("calibrate", self.paths["full"], "--method", "linear12"),
            ("calibrate", self.paths["full"], "--method", "nonlinear12"),
            ("calibrate", self.paths["single"], "--method", "closed-form"),
            ("accuracy", "--sigma", str(SIGMA)),
        ]
        self._warm_up()

    def _warm_up(self) -> None:
        argv = [sys.executable, "-m", self.oc.__name__, "accuracy", "--sigma", "1"]
        code, _, _ = run_child(argv, self.env)
        if code != 0:
            raise RuntimeError(f"{self.oc.__name__} accuracy exited with {code} during set-up")

    def twin(self, pkg) -> "CliCold":
        """Runs this workload's commands, on the same files, through ``pkg``."""
        other = type(self)(self.seed, self.workdir, pkg)
        other.commands = self.commands
        other.env = cli_env(pkg)
        other._warm_up()
        return other

    def job(self, i: int):
        return self.commands[i % len(self.commands)]

    def run(self, args):
        if self.traced:
            self.calls += 1
            script = os.path.join(BENCH_DIR, "traced_cli.py")
            argv = [sys.executable, script, self.child_spans, str(self.calls), *args]
        else:
            argv = [sys.executable, "-m", self.oc.__name__, *args]
        code, out, rss = run_child(argv, self.env)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return out

    def _expected(self, args) -> dict:
        """Offsets (and, for fixtures, sigma_rho) the library gives in-process
        for the same input."""
        name, method = args[1], args[3]
        if name in FIXTURE_OFFSETS:
            offsets, sigma_rho = FIXTURE_OFFSETS[name][method]
            return {"offsets": offsets, "sigma_rho": sigma_rho}
        if args not in self._expected_cache:
            oc = self.oc
            key = "full" if name == self.paths["full"] else "single"
            m = self.files[key]
            if method == "linear12":
                res = oc.least_squares_solve(oc.build_twelve_eq_system(self.geom), m)
            elif method == "nonlinear12":
                res = oc.nonlinear_identify(m, self.geom)
            else:
                res = oc.solve_single_posture_closed_form(m, self.geom)
            self._expected_cache[args] = {"offsets": res.offsets.tolist(), "truth": self.truth[key]}
        return self._expected_cache[args]

    def check(self, args, out) -> str | None:
        doc = json.loads(out)
        if args[0] == "accuracy":
            for scheme in ("six", "twelve"):
                got = doc[f"{scheme}_equation"]["factor"]
                if not math.isclose(got, FACTORS[scheme], rel_tol=1e-9):
                    return f"accuracy: {scheme}-equation factor {got}"
            return None
        label = f"calibrate {args[1]} --method {args[3]}"
        offsets = [doc["offsets"][k] for k in ("d_rho_x", "d_rho_y", "d_rho_z")]
        want = self._expected(args)
        if not np.allclose(offsets, want["offsets"], rtol=1e-9, atol=1e-12):
            return f"{label}: offsets {offsets} vs {list(want['offsets'])}"
        if "sigma_rho" in want and not math.isclose(doc["sigma_rho"], want["sigma_rho"], rel_tol=1e-9):
            return f"{label}: sigma_rho {doc['sigma_rho']} vs {want['sigma_rho']}"
        # a loose sanity bound; the estimate itself is compared with the library above
        if "truth" in want and np.abs(np.subtract(offsets, want["truth"])).max() > 0.5:
            return f"{label}: offsets {offsets} far from truth {want['truth'].tolist()}"
        if not doc["converged"] or not doc["sigma_rho"] > 0:
            return f"{label}: not converged or no sigma_rho"
        return None


WORKLOADS = {"mc_table3": McTable3, "calibrate_stream": CalibrateStream, "cli_cold": CliCold}
