from pathlib import Path

import numpy as np
import pytest

from molrmog.calculus import score_of
from molrmog.model import Subspace, mixture_moments
from molrmog.schedule import DiffusionSchedule, coefficients, make_schedule
from molrmog.score import _lower_solve, _require_noise, mixture_log_density


@pytest.fixture
def unit_sched():
    """Constant-drift schedule with s(t) = 1, gamma(t) = sqrt(t); at t = 1
    the noised coefficients are s = gamma = 1."""
    return make_schedule("constant_drift", 1.0, 0.01, 1.0)


@pytest.fixture
def vp_sched():
    return make_schedule("vp", 2.0, 0.01, 1.0)


def dense_gaussian_logpdf(x, mean, cov):
    """Brute-force Gaussian log-density via dense Cholesky (test oracle)."""
    x = np.atleast_2d(x)
    d = x.shape[1]
    cf = np.linalg.cholesky(cov)
    y = np.linalg.solve(cf, (x - mean).T).T
    out = -0.5 * (d * np.log(2 * np.pi) + 2 * np.sum(np.log(np.diag(cf)))
                  + np.sum(y * y, axis=1))
    return out if out.size > 1 else float(out[0])


def read_only_layouts(X):
    """Read-only C-ordered and column-major copies of X."""
    out = []
    for order in "CF":
        a = np.array(X, order=order)
        a.flags.writeable = False
        out.append(a)
    return out


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function on R^d."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def readme_tour() -> str:
    """The README's library tour, its first python code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("```python\n", 1)[1].split("```", 1)[0]


def prior_init(sched: DiffusionSchedule, cfg, dim: int) -> np.ndarray:
    """cfg.n draws of N(0, gamma(t_max)^2 I), the horizon marginal of
    zero-mean data, as a reverse sampler's init.  The generator is a child
    of cfg.seed's seed sequence, so its stream is independent of the
    sampler's noise, which starts at default_rng(cfg.seed)'s first draw."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    return sched.gamma(sched.t_max) * rng.standard_normal((cfg.n, dim))


# ---------------------------------------------------------------------------
# reference implementations the library has no caller for


def sm_errors(theta, truth, pis, sched: DiffusionSchedule, t: float,
              X: np.ndarray) -> np.ndarray:
    """Per-sample squared score gaps |s_theta(x) - s_truth(x)|^2."""
    diff = score_of(theta, pis, sched, t, X) - score_of(truth, pis, sched, t, X)
    return np.sum(np.atleast_2d(diff) ** 2, axis=-1)


def empirical_loss(theta, truth, pis, sched: DiffusionSchedule, t: float,
                   X: np.ndarray) -> float:
    """Mean squared score error at time t over the (n, d) points X."""
    return float(np.mean(sm_errors(theta, truth, pis, sched, t, X)))


def conditional_score(x_t: np.ndarray, x0: np.ndarray, sched: DiffusionSchedule,
                      t: float) -> np.ndarray:
    """Score of the Gaussian transition kernel: -(x_t - s x0) / gamma^2."""
    s, _, gamma = coefficients(sched, t)
    _require_noise(gamma)
    x_t = np.asarray(x_t, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    return -(x_t - s * x0) / (gamma * gamma)


# probe grid of `equivalent_gaussian_error`: seeded random directions plus
# the coordinate axes, each at evenly spaced radii
PROBE_DIRS = 64
PROBE_RADII = 16
PROBE_SEED = 0


def equivalent_gaussian_error(sub: Subspace, sched: DiffusionSchedule, t: float,
                              probe_radius: float):
    """Worst log-density gap between the noised mixture and its moment match
    over the ball |x - mu_bar| <= probe_radius, plus the parameter spreads
    eps (max pairwise factor distance) and delta (max pairwise mean distance).
    """
    comps = sub.components
    if len(comps) < 2:
        raise ValueError("equivalent-Gaussian error needs >= 2 components")
    eps = 0.0
    delta = 0.0
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            eps = max(eps, float(np.linalg.norm(comps[i].U - comps[j].U)))
            delta = max(delta, float(np.linalg.norm(comps[i].mu - comps[j].mu)))
    s, _, gamma = coefficients(sched, t)
    eq = mixture_moments([c.mu for c in comps], [c.U for c in comps], sub.weights, s, gamma)
    d = sub.d
    rng = np.random.default_rng(PROBE_SEED)
    dirs = rng.standard_normal((PROBE_DIRS, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, np.eye(d), -np.eye(d)])
    radii = np.linspace(0.0, probe_radius, PROBE_RADII + 1)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, d) + eq.mu_bar

    log_p = mixture_log_density(sub, sub.weights, sched, t, pts)
    # Gaussian log-density of the moment match via a dense Cholesky
    cf = np.linalg.cholesky(eq.sigma_bar)
    y = _lower_solve(cf, (pts - eq.mu_bar).T).T
    log_q = -0.5 * (d * np.log(2.0 * np.pi) + 2.0 * np.sum(np.log(np.diag(cf)))
                    + np.sum(y * y, axis=1))
    err_max = float(np.max(np.abs(log_p - log_q)))
    return eps, delta, err_max
