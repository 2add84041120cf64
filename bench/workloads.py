"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup` (counted in
`setup_s`), runs one op per call of `op` (timed; repeated for the run's
seconds), and turns each op's result into oracle checks.  A check fails only
when correct code could not have produced the result; statistical criteria
that correct code can miss at some seeds (the gate's slope band, the
contraction fraction on the CLI's short run) are reported as values.

All calls into molrmog go through module attributes (`objective.estimation_gap_experiment`,
not an imported name), so the tracer's rebinding also covers them.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import molrmog.cli as cli
from molrmog import calculus, model, objective, optimizer, sampler, schedule, score

CONST = schedule.make_schedule("constant_drift", 1.0, 0.01, 1.0)

# acceptance 03's two-subspace model: D=6, K=2, d=2, L=2, r=1
TWO_SUBSPACE_SPEC = {
    "D": 6,
    "subspaces": [
        {"d": 2, "A_seed": 1, "components": [
            {"pi": 0.5, "mu": [2.0, 0.0], "U": [[0.5], [0.1]]},
            {"pi": 0.5, "mu": [-2.0, 0.4], "U": [[0.3], [0.4]]}]},
        {"d": 2, "A_seed": 2, "components": [
            {"pi": 0.5, "mu": [0.0, 2.0], "U": [[0.2], [0.5]]},
            {"pi": 0.5, "mu": [0.5, -2.0], "U": [[0.4], [0.2]]}]},
    ],
}

# relative agreement demanded of the low-rank score paths against dense
# Cholesky; both are exact, so only rounding separates them
DENSE_RTOL = 1e-9
# central differences with h = 1e-5 carry O(h^2) truncation and O(eps/h)
# rounding; the repo's own FD tests use abs 5e-7 on unit-scale entries
FD_TOL = 1e-6
# multiplier on the CLT standard error for the sampler's weight/moment bands;
# at 6 SE a correct sampler fails with probability ~1e-9 per band
CLT_K = 6.0


@dataclass
class Check:
    name: str
    ok: bool
    value: float
    limit: float

    def row(self):
        return [self.name, bool(self.ok), float(self.value), float(self.limit)]


def failed_checks(names) -> list[Check]:
    return [Check(n, False, float("nan"), float("nan")) for n in names]


# ---------------------------------------------------------------------------
# dense oracles


def _dense_logpdf(x, mean, cov):
    cf = np.linalg.cholesky(cov)
    y = np.linalg.solve(cf, (x - mean).T).T
    return -0.5 * (x.shape[1] * math.log(2 * math.pi)
                   + 2 * np.sum(np.log(np.diag(cf))) + np.sum(y * y, axis=1))


def _dense_mixture_score(weights, means, factors, s, gamma, x):
    """Score of sum_l w_l N(s m_l, s^2 F_l F_l^T + gamma^2 I) by dense algebra."""
    n, dim = x.shape
    logj, grads = [], []
    for w, m, F in zip(weights, means, factors):
        cov = s * s * F @ F.T + gamma * gamma * np.eye(dim)
        logj.append(math.log(w) + _dense_logpdf(x, s * m, cov))
        grads.append(-np.linalg.solve(cov, (x - s * m).T).T)
    logj = np.stack(logj, axis=1)
    r = np.exp(logj - logj.max(axis=1, keepdims=True))
    r /= r.sum(axis=1, keepdims=True)
    return sum(r[:, i:i + 1] * g for i, g in enumerate(grads))


def _rel_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


def _latent_oracle_check(name, params, pis, t, Z) -> Check:
    s, _, gamma = schedule.coefficients(CONST, t)
    want = _dense_mixture_score(pis, [mu for mu, _ in params.components],
                                [U for _, U in params.components], s, gamma, Z)
    got = score.latent_score(params, pis, CONST, t, Z)
    return Check(name, _rel_gap(got, want) <= DENSE_RTOL, _rel_gap(got, want), DENSE_RTOL)


# ---------------------------------------------------------------------------
# workloads


class Estimation:
    """objective.estimation_gap_experiment on acceptance 03's model."""

    name = "estimation"
    spawns_processes = False

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.t = 1.0
        self.sizes = (dict(grid=8, half_width=0.25, n_schedule=[128, 256], trials=1,
                           n_mc=1024, t=self.t, spot_points=64, R_points=4096)
                      if smoke else
                      dict(grid=64, half_width=0.25, n_schedule=[2 ** k for k in range(7, 14)],
                           trials=1, n_mc=16384, t=self.t, spot_points=256, R_points=100000))
        self.planned = ["finite"] + [f"gap_le_bound_n{n}" for n in self.sizes["n_schedule"]]

    def setup(self):
        sz = self.sizes
        self.model = model.build_model(TWO_SUBSPACE_SPEC)
        self.truth = tuple(score.from_model_subspace(sub)[0] for sub in self.model.subspaces)
        self.pis = [sub.weights for sub in self.model.subspaces]
        self.grid = objective.make_theta_grid(self.truth, sz["half_width"], sz["grid"], self.seed)
        rng = np.random.default_rng([self.seed, 1])
        X = model.forward_noise(model.sample_data(self.model, sz["R_points"], rng).x,
                                CONST, self.t, rng)
        R = float(np.max(np.linalg.norm(X, axis=1)))
        B_mu = max(float(np.linalg.norm(mu)) for th in self.grid for th_k in th
                   for mu, _ in th_k.components)
        B_U = max(float(np.linalg.norm(U)) for th in self.grid for th_k in th
                  for _, U in th_k.components)
        counts = tuple((len(sub.components), sub.d) for sub in self.model.subspaces)
        self.lc = objective.lipschitz_constants(
            objective.ParameterBox(B_mu=B_mu, B_U=B_U, counts=counts), CONST, self.t, R)
        self.spot_X = X[: sz["spot_points"]]

    def op(self, tracer=None, cut=None):
        sz = self.sizes
        return objective.estimation_gap_experiment(
            self.model, self.grid, sz["n_schedule"], sz["trials"], CONST, self.t,
            [self.seed, 2], n_mc=sz["n_mc"])

    def check(self, rep) -> list[Check]:
        vals = [rep.slope, rep.C1, rep.sigma2, rep.pop_stderr_max] + [
            v for row in rep.rows for v in row[1:]]
        bad = sum(not math.isfinite(v) for v in vals)
        out = [Check("finite", bad == 0, bad, 0)]
        for n, gap, _ in rep.rows:
            bound = objective.estimation_gap_bound(n, rep.C1, self.lc.L, self.lc.L_l,
                                                   rep.sigma2, rep.p)
            out.append(Check(f"gap_le_bound_n{n}", gap <= bound, gap, bound))
        return out

    def values(self, rep) -> dict:
        # the gate's slope band needs 20 trials; at this budget it is a value
        return {"slope": rep.slope, "slope_in_gate_band": abs(rep.slope + 0.5) <= 0.1}

    def final_checks(self) -> list[Check]:
        out = []
        sets = [("truth", self.truth)] + [(f"grid{i}", th) for i, th in enumerate(self.grid[:4])]
        for label, th_set in sets:
            worst = None
            for k, sub in enumerate(self.model.subspaces):
                c = _latent_oracle_check(f"latent_score_dense_{label}", th_set[k],
                                         self.pis[k], self.t, model.encode(sub, self.spot_X))
                if worst is None or c.value > worst.value:
                    worst = c
            out.append(worst)
        return out


class Sampling:
    """sampler.reverse_sample with the exact ambient score, from exact
    terminal-marginal draws, then sampler.sample_quality."""

    name = "sampling"
    spawns_processes = False

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        # 200 steps keep the Euler-Maruyama bias well inside the n = 5000 bands
        self.sizes = (dict(n=2000, steps=50, spot_points=64) if smoke
                      else dict(n=5000, steps=200, spot_points=256))
        flat = model.component_weights(model.build_model(TWO_SUBSPACE_SPEC))
        self.planned = [f"{q}_k{k}l{l}" for k, l, _ in flat for q in ("weight", "mean", "cov")]

    def setup(self):
        sz = self.sizes
        self.model = model.build_model(TWO_SUBSPACE_SPEC)
        rng = np.random.default_rng([self.seed, 1])
        self.init = model.forward_noise(model.sample_data(self.model, sz["n"], rng).x,
                                        CONST, CONST.t_max, rng)
        self.cfg = sampler.SamplerConfig(steps=sz["steps"], n=sz["n"], seed=self.seed)
        self.spot_X = self.init[: sz["spot_points"]]

    def op(self, tracer=None, cut=None):
        fn = sampler.model_score_fn(self.model, CONST)
        if tracer is not None:
            fn = tracer.span("sampler.score_fn", fn)
        y = sampler.reverse_sample(fn, CONST, self.cfg, init=self.init)
        return sampler.sample_quality(y, self.model, CONST, CONST.t_min)

    def check(self, rep) -> list[Check]:
        """n-scaled CLT bands around the exact noised component moments."""
        n = self.sizes["n"]
        s, _, gamma = schedule.coefficients(CONST, CONST.t_min)
        out = []
        for r in rep.rows:
            sub = self.model.subspaces[r.k]
            W = sub.A @ sub.components[r.l].U
            cov = s * s * W @ W.T + gamma * gamma * np.eye(self.model.D)
            m = r.weight_true * n
            w_band = CLT_K * math.sqrt(r.weight_true * (1 - r.weight_true) / n)
            mean_band = CLT_K * math.sqrt(np.trace(cov) / m)
            cov_band = CLT_K * math.sqrt((np.trace(cov) ** 2 + np.trace(cov @ cov)) / m)
            tag = f"k{r.k}l{r.l}"
            w_err = abs(r.weight_emp - r.weight_true)
            out.append(Check(f"weight_{tag}", w_err <= w_band, w_err, w_band))
            out.append(Check(f"mean_{tag}", r.mean_err <= mean_band, r.mean_err, mean_band))
            out.append(Check(f"cov_{tag}", r.cov_err <= cov_band, r.cov_err, cov_band))
        return out

    def values(self, rep) -> dict:
        return {"max_weight_err": rep.max_weight_err, "max_mean_err": rep.max_mean_err}

    def final_checks(self) -> list[Check]:
        flat = model.component_weights(self.model)
        weights = [w for _, _, w in flat]
        means = [self.model.subspaces[k].A @ self.model.subspaces[k].components[l].mu
                 for k, l, _ in flat]
        factors = [self.model.subspaces[k].A @ self.model.subspaces[k].components[l].U
                   for k, l, _ in flat]
        out = []
        for t in (CONST.t_min, 0.5, CONST.t_max):
            s, _, gamma = schedule.coefficients(CONST, t)
            want = _dense_mixture_score(weights, means, factors, s, gamma, self.spot_X)
            got = score.ambient_score(self.model, CONST, t, self.spot_X)
            gap = _rel_gap(got, want)
            out.append(Check(f"ambient_score_dense_t{t}", gap <= DENSE_RTOL, gap, DENSE_RTOL))
        return out


class Curvature:
    """(a) calculus.hessian_empirical for a free rank-one mixture with p = 64;
    (b) optimizer.gd_train on the tied two-mode form at acceptance 05's settings."""

    name = "curvature"
    spawns_processes = False
    planned = ["lambda_min_ge_0.8_alpha", "gd_distance", "gd_contraction"]

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.t = 1.0
        self.sizes = (dict(d=4, L=2, n_mc=512, gd_n=2000, radius=0.2, m_max=500,
                           tol=1e-13, fd_points=2)
                      if smoke else
                      dict(d=8, L=4, n_mc=4096, gd_n=30000, radius=0.2, m_max=500,
                           tol=1e-13, fd_points=3))

    def setup(self):
        sz = self.sizes
        d, L = sz["d"], sz["L"]
        eye = np.eye(d)
        # means 4 e_l; rank-one factors 0.5 (e_l + e_{l + d/2}) overlap each mean
        self.free = score.LatentParams(tuple(
            (4.0 * eye[l], 0.5 * (eye[l] + eye[(l + d // 2) % d])[:, None]) for l in range(L)))
        self.free_pis = np.full(L, 1.0 / L)
        self.tied = score.SymmetricParams(mu=[4.0, 0.0], U=[[1.0], [0.0]])
        rng = np.random.default_rng([self.seed, 1])
        self.gd_X = calculus.sample_noised(self.tied, None, CONST, self.t, sz["gd_n"], rng)
        self.theta0 = optimizer.init_near(self.tied, sz["radius"], rng)
        self.fd_free = calculus.sample_noised(self.free, self.free_pis, CONST, self.t,
                                              sz["fd_points"], rng)
        self.fd_tied = self.gd_X[: sz["fd_points"]]
        self.gd_cfg = optimizer.GDConfig(m_max=sz["m_max"], tol=sz["tol"])

    def op(self, tracer=None, cut=None):
        H = calculus.hessian_empirical(self.free, self.free_pis, CONST, self.t,
                                       self.sizes["n_mc"], [self.seed, 2])
        trace = optimizer.gd_train(self.theta0, self.tied, None, CONST, self.t,
                                   self.gd_X, self.gd_cfg)
        contraction = optimizer.contraction_check(trace, trace.rho_bound, slack=0.05,
                                                  dist_floor=1e-12)
        return (H.lambda_min, H.alpha_formula, trace.rows[0].dist, trace.final_dist,
                trace.rows[-1].m, contraction.fraction, contraction.checked)

    def check(self, res) -> list[Check]:
        lam, alpha, dist0, dist, iters, frac, checked = res
        return [
            Check("lambda_min_ge_0.8_alpha", lam >= 0.8 * alpha, lam, 0.8 * alpha),
            Check("gd_distance", dist <= 1e-3 * dist0, dist, 1e-3 * dist0),
            Check("gd_contraction", checked > 0 and frac >= 0.95, frac, 0.95),
        ]

    def values(self, res) -> dict:
        return {"lambda_min": res[0], "alpha_formula": res[1], "gd_iters": res[4]}

    def final_checks(self) -> list[Check]:
        out = []
        for label, params, pis, X in (("free", self.free, self.free_pis, self.fd_free),
                                      ("tied", self.tied, None, self.fd_tied)):
            exact = calculus.exact_jacobian(params, pis, CONST, self.t, X)
            worst = 0.0
            for i, x in enumerate(X):
                fd = calculus.jacobian_fd(params, pis, CONST, self.t, x).full
                worst = max(worst, _rel_gap(exact[i], fd))
            out.append(Check(f"jacobian_fd_{label}", worst <= FD_TOL, worst, FD_TOL))
        return out


# documented NaNs: the first GD ratio and the non-square block's eigenvalue
def _nan_allowed(file: str, record: dict, column: str) -> bool:
    return ((file == "trace.csv" and column == "ratio" and record.get("m") == "0")
            or (file == "blocks.csv" and column == "lambda_min" and record.get("block") == "muU"))


def _json_numbers(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _json_numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _json_numbers(v)


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|\bnan\b|\binf\b)", re.IGNORECASE)


def artifact_bad_values(path: Path) -> int:
    """Count non-finite numbers in one artifact (missing or empty counts as 1)."""
    if not path.is_file():
        return 1
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return sum(not math.isfinite(v) for v in _json_numbers(json.loads(text)))
    if path.suffix == ".csv":
        lines = text.splitlines()
        if len(lines) < 2:
            return 1
        header = lines[0].split(",")
        bad = 0
        for line in lines[1:]:
            record = dict(zip(header, line.split(",")))
            for col, cell in record.items():
                try:
                    v = float(cell)
                except ValueError:
                    continue  # label column such as score_fd_errors.csv's kind
                if not math.isfinite(v) and not _nan_allowed(path.name, record, col):
                    bad += 1
        return bad
    numbers = _NUMBER.findall(text)
    return sum(not math.isfinite(float(v)) for v in numbers) + (0 if numbers else 1)


class Pipeline:
    """The README's 8 subcommands on configs/example.json with reduced
    estimation and sampler budgets; untraced runs start one process per
    subcommand, traced runs call cli.run in-process."""

    name = "pipeline"
    spawns_processes = True

    def __init__(self, seed: int, smoke: bool, root: Path):
        self.seed = seed
        self.root = root
        self.config = root / "configs" / "example.json"
        self.sizes = ({"estimation.trials": 1, "estimation.n_mc": 2048,
                       "estimation.grid": 4, "estimation.n_schedule": [128, 256],
                       "sampler.n": 500, "sampler.steps": 10, "train.n": 2000,
                       "hessian.n_mc": 2000, "overlap.n_mc": 2000}
                      if smoke else
                      {"estimation.trials": 2, "estimation.n_mc": 16384,
                       "sampler.n": 5000, "sampler.steps": 100})
        self.overrides = [f"{k}={json.dumps(v, separators=(',', ':'))}"
                          for k, v in self.sizes.items()]
        self.planned = [f"exit_{sub}" for sub in cli.SUBCOMMANDS] + ["artifacts"]
        self.in_process = False

    def setup(self):
        self.out = self.root / "bench" / "out" / f"pipeline-s{self.seed}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.env = dict(os.environ)
        src = str(self.root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        sets = [a for o in self.overrides for a in ("--set", o)]
        self.argv = {sub: [sys.executable, "-m", "molrmog.cli", sub, "--config",
                           str(self.config), "--out", str(self.out), "--seed",
                           str(self.seed)] + sets
                     for sub in cli.SUBCOMMANDS}

    def _manifest_artifacts(self) -> list[str]:
        try:
            return json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))[
                "artifacts"]
        except (OSError, ValueError, KeyError):
            return []

    def op(self, tracer=None, cut=None):
        results = []
        manifest = self.out / "manifest.json"
        for i, sub in enumerate(cli.SUBCOMMANDS):
            if i and cut is not None:
                cut()  # time each subcommand against its own reference runs
            manifest.unlink(missing_ok=True)
            t0 = time.perf_counter()
            if self.in_process:
                code = cli.run(sub, str(self.config), self.overrides, self.seed, str(self.out))
            else:
                code = subprocess.run(self.argv[sub], env=self.env, cwd=self.root,
                                      stdout=subprocess.DEVNULL, timeout=150).returncode
            results.append((sub, code, time.perf_counter() - t0, self._manifest_artifacts()))
        return results

    def check(self, results) -> list[Check]:
        out = []
        for sub, code, _, artifacts in results:
            out.append(Check(f"exit_{sub}", code == 0, code, 0))
            if code == 0 and not artifacts:
                out.append(Check(f"artifacts_{sub}", False, 1, 0))
            for name in artifacts:
                bad = artifact_bad_values(self.out / name)
                out.append(Check(f"artifact_{name}", bad == 0, bad, 0))
        return out

    def values(self, results) -> dict:
        report = self.out / "report.md"
        text = report.read_text(encoding="utf-8") if report.is_file() else ""
        vals = {f"{sub}.wall_s": wall for sub, _, wall, _ in results}
        # report.md's PASS/FAIL lines are gate criteria at full budget
        vals["report_pass"] = text.count(": PASS")
        vals["report_fail"] = text.count(": FAIL")
        return vals

    def final_checks(self) -> list[Check]:
        return []

    @staticmethod
    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def make(name: str, seed: int, smoke: bool, root: Path):
    if name == "pipeline":
        return Pipeline(seed, smoke, root)
    return {"estimation": Estimation, "sampling": Sampling,
            "curvature": Curvature}[name](seed, smoke)
