"""Reverse-SDE sampling by Euler-Maruyama, plus moment diagnostics.

The reverse process dy = [f(t) y - g(t)^2 score(y, t)] dt + g(t) dB-bar is
integrated backward on a uniform grid from t_max to t_min.  Any callable
score works: the exact mixture score, a trained parameter set wrapped into a
score, or a deliberately wrong one for stress tests.

Each step does the plain Euler-Maruyama arithmetic in the same order, in
buffers the sampler owns (drift, g^2 score and noise), and writes its result
into one fresh state array.  `reverse_sample` therefore never modifies the
array it hands to score_fn, nor the array score_fn returns: a callback may
cache either or return a view of its input.  The state and those buffers are
column-major (n, D) arrays, so the exact score it usually calls
(`score.NoisedMixture.score`) reads the state's x^T in place and returns a
column-major view of its (D, n) result, which the g^2 multiply reads
contiguously.  The final state is returned as a C-ordered copy.

Each step draws its Gaussian noise after its score, from one generator in
step order.  The generator fills a C-ordered buffer, since
`standard_normal(out=...)` fills in memory order and a column-major out
would put each draw on another entry; the scaling then writes it into the
column-major g^2 score buffer through the transposes, so numpy's iterator
needs no buffer of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NaNDetected, ValidationError
from .model import MoLRMoGModel, component_weights
from .schedule import DiffusionSchedule
from .score import ambient_responsibilities, ambient_score


@dataclass(frozen=True)
class SamplerConfig:
    steps: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValidationError("steps must be non-negative")
        if self.n < 1:
            raise ValidationError("need at least one sample")


def reverse_sample(score_fn, sched: DiffusionSchedule, cfg: SamplerConfig,
                   init: np.ndarray) -> np.ndarray:
    """Integrate the reverse SDE from t_max down to t_min, starting from init,
    an (n, D) array of cfg.n prior draws at t_max (moment-matched ones for a
    non-centered model); the noise is default_rng(cfg.seed)'s, from its first draw."""
    rng = np.random.default_rng(cfg.seed)
    y = np.array(init, dtype=float, order="F")  # column-major state (module docstring)
    if y.ndim != 2:
        raise DimensionMismatch("init must be an (n, D) array")
    if y.shape[0] != cfg.n:
        raise DimensionMismatch(f"init has shape {y.shape}, need ({cfg.n}, D)")
    if cfg.steps == 0:
        return np.ascontiguousarray(y)
    times = np.linspace(sched.t_max, sched.t_min, cfg.steps + 1)
    dt = (sched.t_max - sched.t_min) / cfg.steps
    sqrt_dt = np.sqrt(dt)
    drift = np.empty(y.shape, order="F")
    scratch = np.empty(y.shape, order="F")
    drawn = np.empty(y.shape)
    for i in range(cfg.steps):
        t = float(times[i])
        g = sched.g(t)
        # y - dt (f y - g^2 score) + g sqrt(dt) xi in the out-of-place
        # loop's operation order, into a fresh state (module docstring)
        np.multiply(sched.f(t), y, out=drift)
        np.multiply(g * g, score_fn(y, t), out=scratch)
        drift -= scratch
        drift *= dt
        y = y - drift
        rng.standard_normal(out=drawn)
        np.multiply(drawn.T, g * sqrt_dt, out=scratch.T)
        y += scratch
        # a NaN passes through both reductions; no (n, D) mask
        if not (np.isfinite(y.min()) and np.isfinite(y.max())):
            raise NaNDetected(f"non-finite state at reverse step {i}")
    return np.ascontiguousarray(y)


@dataclass
class ComponentQuality:
    k: int
    l: int
    weight_true: float
    weight_emp: float
    mean_err: float
    cov_err: float


@dataclass
class QualityReport:
    rows: list[ComponentQuality]

    @property
    def max_weight_err(self) -> float:
        return max(abs(r.weight_emp - r.weight_true) for r in self.rows)

    @property
    def max_mean_err(self) -> float:
        return max(r.mean_err for r in self.rows)


def sample_quality(samples: np.ndarray, model: MoLRMoGModel,
                   sched: DiffusionSchedule, t_min: float) -> QualityReport:
    """Per-component weight/mean/covariance errors of ambient samples.

    Samples are assigned to components by argmax posterior at t_min and
    compared against the noised component moments s A mu and
    s^2 (AU)(AU)^T + gamma^2 I.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != model.D:
        raise DimensionMismatch(f"expected samples of shape (n, {model.D})")
    r = ambient_responsibilities(model, sched, t_min, samples)
    assign = np.argmax(r, axis=1)
    s = sched.s(t_min)
    gamma = sched.gamma(t_min)
    rows = []
    mix = model.ambient_mixture
    flat = zip(component_weights(model), mix.means[0], (U[0] for U in mix.factors))
    for ci, ((k, l, w), mean, W) in enumerate(flat):
        pts = samples[assign == ci]
        weight_emp = pts.shape[0] / samples.shape[0]
        mean_true = s * mean
        cov_true = (s * s) * W @ W.T + (gamma * gamma) * np.eye(model.D)
        if pts.shape[0] >= 2:
            mean_err = float(np.linalg.norm(pts.mean(axis=0) - mean_true))
            cov_err = float(np.linalg.norm(np.cov(pts.T, bias=True) - cov_true))
        else:
            mean_err = float("nan")
            cov_err = float("nan")
        rows.append(ComponentQuality(k=k, l=l, weight_true=w, weight_emp=weight_emp,
                                     mean_err=mean_err, cov_err=cov_err))
    return QualityReport(rows=rows)


def model_score_fn(model: MoLRMoGModel, sched: DiffusionSchedule):
    """Wrap the exact ambient mixture score as a sampler callback."""

    def fn(x, t):
        return ambient_score(model, sched, t, x)

    return fn
