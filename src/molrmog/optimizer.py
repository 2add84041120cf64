"""Full-batch gradient descent on the empirical score-matching loss.

The loss at the true parameters is pointwise zero, so its gradient vanishes
exactly there and GD initialized inside the strong-convexity basin contracts
to the truth itself: there is no sampling-noise floor on the distance.  The
theoretical step 2/(alpha + L') yields the contraction factor
rho = (kappa - 1)/(kappa + 1) with kappa = L'/alpha; traces record the
per-iteration distance ratios against that bound.  alpha and L' are the
extreme eigenvalues of the loss Hessian at the truth, exactly 2 E_n[J^T J].
The gradient (2/n) sum_n J_n^T (residual)_n is the residual contraction of
the one derivative path (`calculus.residual_contraction`), so a GD step never
forms the (n, d, p) Jacobian terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import hessian_from_samples, residual_contraction, score_of
from .errors import (
    DivergenceDetected,
    LSmallerThanAlpha,
    NaNDetected,
    NonPositiveAlpha,
    ValidationError,
)
from .schedule import DiffusionSchedule
from .score import _batch


@dataclass(frozen=True)
class GDConfig:
    eta: float | None = None  # None means 2/(alpha_hat + L_hat), the exact Hessian's
    m_max: int = 500
    tol: float = 1e-10

    def __post_init__(self):
        if self.eta is not None and not (self.eta > 0):
            raise ValidationError(f"explicit step size must be positive, got {self.eta}")
        if self.m_max < 0:
            raise ValidationError(f"m_max must be non-negative, got {self.m_max}")
        if not (self.tol >= 0):
            raise ValidationError(f"tol must be non-negative, got {self.tol}")


@dataclass
class TraceRow:
    m: int
    loss: float
    grad_norm: float
    dist: float
    ratio: float  # dist_m / dist_{m-1}; nan at m = 0


@dataclass
class TrainTrace:
    rows: list[TraceRow]
    eta: float
    kappa: float
    rho_bound: float
    converged: bool

    @property
    def final_dist(self) -> float:
        return self.rows[-1].dist


def loss_and_grad(theta, truth, pis, sched: DiffusionSchedule, t: float,
                  data: np.ndarray, truth_score=None) -> tuple[float, np.ndarray]:
    """Empirical loss and its analytic gradient (2/n) sum J^T residual.

    The squared residual and its contraction with the Jacobian are summed
    over row blocks of kernel passes, without forming the (n, d, p) Jacobian
    or any other array that grows with n.  truth_score, the truth's score on
    data, is computed here when omitted.
    """
    X = _batch(data, truth.d)[0]
    if truth_score is None:
        truth_score = score_of(truth, pis, sched, t, X)
    sq, g = residual_contraction(theta, pis, sched, t, X, truth_score)
    return sq / X.shape[0], 2.0 * g / X.shape[0]


def init_near(truth, radius: float, rng):
    """truth + radius * u with u uniform on the flattened unit sphere."""
    if radius < 0:
        raise ValidationError("radius must be non-negative")
    vec = truth.flatten()
    if radius == 0:
        return truth.unflatten(vec)
    rng = np.random.default_rng(rng)
    u = rng.standard_normal(vec.size)
    u /= np.linalg.norm(u)
    return truth.unflatten(vec + radius * u)


def theoretical_step(alpha: float, L_prime: float) -> tuple[float, float, float]:
    """(eta, kappa, rho) for strongly convex/smooth GD."""
    if not (alpha > 0):
        raise NonPositiveAlpha(f"need alpha > 0, got {alpha}")
    if L_prime < alpha:
        raise LSmallerThanAlpha(f"need L' >= alpha, got L'={L_prime} < alpha={alpha}")
    eta = 2.0 / (alpha + L_prime)
    kappa = L_prime / alpha
    rho = (kappa - 1.0) / (kappa + 1.0)
    return eta, kappa, rho


def estimate_local_constants(truth, pis, sched: DiffusionSchedule, t: float,
                             data: np.ndarray) -> tuple[float, float]:
    """(alpha_hat, L_hat): extreme eigenvalues of the empirical loss Hessian
    at the truth.  The residual is zero there at every point, so that Hessian
    is exactly the Gauss-Newton form 2 mean_n J_n^T J_n."""
    evals = np.linalg.eigvalsh(2.0 * hessian_from_samples(truth, pis, sched, t, data).H)
    return float(evals[0]), float(evals[-1])


def gd_train(theta0, truth, pis, sched: DiffusionSchedule, t: float,
             data: np.ndarray, cfg: GDConfig) -> TrainTrace:
    """Deterministic full-batch GD; trace records distance contraction."""
    X = _batch(data, truth.d)[0]
    if cfg.eta is None:
        alpha_hat, L_hat = estimate_local_constants(truth, pis, sched, t, X)
        eta, kappa, rho = theoretical_step(alpha_hat, L_hat)
    else:
        eta, kappa, rho = cfg.eta, float("nan"), float("nan")

    s_true = score_of(truth, pis, sched, t, X)
    truth_vec = truth.flatten()
    vec = theta0.flatten()
    dist0 = float(np.linalg.norm(vec - truth_vec))
    rows: list[TraceRow] = []
    prev_dist = None
    converged = False
    for m in range(cfg.m_max + 1):
        theta = truth.unflatten(vec)
        loss, grad = loss_and_grad(theta, truth, pis, sched, t, X, s_true)
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise NaNDetected(f"non-finite loss or gradient at iteration {m}")
        dist = float(np.linalg.norm(vec - truth_vec))
        ratio = float("nan") if prev_dist is None or prev_dist == 0 else dist / prev_dist
        grad_norm = float(np.linalg.norm(grad))
        rows.append(TraceRow(m=m, loss=loss, grad_norm=grad_norm, dist=dist, ratio=ratio))
        if dist0 > 0 and dist > 10.0 * dist0:
            raise DivergenceDetected(
                f"distance {dist:.3g} exceeded 10x initial {dist0:.3g} at iteration {m}")
        if grad_norm <= cfg.tol:
            converged = True
            break
        if m == cfg.m_max:
            break
        prev_dist = dist
        vec = vec - eta * grad
    return TrainTrace(rows=rows, eta=float(eta), kappa=float(kappa),
                      rho_bound=float(rho), converged=converged)


@dataclass
class ContractionReport:
    fraction: float
    first_violation: int | None
    checked: int


def contraction_check(trace: TrainTrace, rho: float, slack: float = 0.05,
                      dist_floor: float = 0.0) -> ContractionReport:
    """Fraction of recorded ratios at or below rho + slack, above the floor."""
    checked = 0
    ok = 0
    first_violation = None
    for row in trace.rows:
        if math.isnan(row.ratio) or row.dist <= dist_floor:
            continue
        checked += 1
        if row.ratio <= rho + slack:
            ok += 1
        elif first_violation is None:
            first_violation = row.m
    fraction = ok / checked if checked else 1.0
    return ContractionReport(fraction=fraction, first_violation=first_violation,
                             checked=checked)
