"""Score-matching losses, Lipschitz constants, and the estimation-gap study.

The empirical loss is the mean squared score error against the known truth,
so it vanishes identically at the true parameters: the approximation error
of this family is exactly zero and every gap measured here is pure
estimation error.  The denoising variant regresses against the conditional
score of the forward kernel and differs from the score-matching loss only by
a parameter-independent constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .calculus import score_of
from .errors import GridEmpty, TimeOutOfRange, ValidationError
from .model import MoLRMoGModel, encode, forward_noise, sample_data
from .schedule import DiffusionSchedule, coefficients
from .score import LatentParams, conditional_score, from_model_subspace, mixture_kernel


@dataclass(frozen=True)
class LossConfig:
    t: float | None = None  # fixed evaluation time
    grid_count: int | None = None  # or a uniform time grid over [t_min, t_max]

    def times(self, sched: DiffusionSchedule) -> np.ndarray:
        if self.t is not None:
            if not (sched.t_min <= self.t <= sched.t_max):
                raise TimeOutOfRange(f"t={self.t} outside schedule range")
            return np.array([self.t])
        if self.grid_count is None or self.grid_count < 2:
            raise ValidationError("need a fixed t or a grid of >= 2 times")
        return np.linspace(sched.t_min, sched.t_max, self.grid_count)


def sm_errors(theta, truth, pis, sched: DiffusionSchedule, t: float,
              X: np.ndarray) -> np.ndarray:
    """Per-sample squared score gaps |s_theta(x) - s_truth(x)|^2."""
    diff = score_of(theta, pis, sched, t, X) - score_of(truth, pis, sched, t, X)
    return np.sum(np.atleast_2d(diff) ** 2, axis=-1)


def empirical_loss(theta, truth, pis, sched: DiffusionSchedule, cfg: LossConfig,
                   data) -> float:
    """Mean squared score error over data.

    Fixed-t mode: data is one (n, d) array drawn at that time.  Grid mode:
    data is a list of arrays aligned with cfg.times, combined with
    trapezoidal weights over the interval.
    """
    times = cfg.times(sched)
    if len(times) == 1:
        return float(np.mean(sm_errors(theta, truth, pis, sched, float(times[0]), data)))
    if len(data) != len(times):
        raise ValidationError("grid mode needs one dataset per grid time")
    vals = [np.mean(sm_errors(theta, truth, pis, sched, float(tt), X))
            for tt, X in zip(times, data)]
    weights = np.ones(len(times))
    weights[0] = weights[-1] = 0.5
    weights /= weights.sum()
    return float(np.dot(weights, vals))


def dsm_loss(theta, pis, sched: DiffusionSchedule, cfg: LossConfig, pairs) -> float:
    """Denoising loss: mean |conditional_score(x_t, x0) - s_theta(x_t)|^2."""
    x0, x_t, t = pairs
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
    target = conditional_score(x_t, x0, sched, float(t))
    diff = score_of(theta, pis, sched, float(t), x_t) - target
    return float(np.mean(np.sum(diff ** 2, axis=-1)))


# ---------------------------------------------------------------------------
# Lipschitz constants of the score in theta


@dataclass(frozen=True)
class ParameterBox:
    """Domain over which the constants are quoted: per-subspace component
    counts/dimensions plus uniform norm caps on means and factors."""

    B_mu: float
    B_U: float
    counts: tuple[tuple[int, int], ...]  # (n_k, d_k) per subspace


@dataclass(frozen=True)
class LipschitzReport:
    B_mu: float
    B_U: float
    C_w: float
    L_mu: float
    L_U: float
    L: float
    L_l: float
    L_prime: float


def lipschitz_constants(domain: ParameterBox, sched: DiffusionSchedule, t: float,
                        R: float) -> LipschitzReport:
    """Explicit smoothness constants over the box, data norm capped by R.

    All order constants are instantiated as 1; the random-probe audit in the
    tests keeps the reported values falsifiable.
    """
    if not (R > 0):
        raise ValidationError(f"need R > 0, got {R}")
    s, _, gamma = coefficients(sched, t)
    g2 = gamma * gamma
    reach = R + s * domain.B_mu
    C_w = reach ** 3 * s * s / (g2 * g2)
    L_mu = s * s * reach ** 2 / g2
    L_U = C_w
    L = math.sqrt(sum(n_k * (L_mu ** 2 + L_U ** 2) for n_k, _ in domain.counts))
    L_l = 2.0 * reach / g2
    return LipschitzReport(B_mu=domain.B_mu, B_U=domain.B_U, C_w=C_w, L_mu=L_mu,
                           L_U=L_U, L=L, L_l=L_l, L_prime=L * L_l)


# ---------------------------------------------------------------------------
# estimation-gap scaling experiment


@dataclass
class EstimationReport:
    rows: list[tuple[int, float, float]]  # (n, sup_gap, stderr)
    slope: float
    C1: float
    sigma2: float
    p: int
    pop_stderr_max: float


def flatten_theta_set(theta_set) -> np.ndarray:
    return np.concatenate([th.flatten() for th in theta_set])


def unflatten_theta_set(template, vec: np.ndarray):
    out, pos = [], 0
    for th in template:
        out.append(th.unflatten(vec[pos : pos + th.dim]))
        pos += th.dim
    return tuple(out)


# bits per Sobol coordinate, as scipy's default
SOBOL_BITS = 30


def scrambled_sobol(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the d-dimensional Sobol sequence with a linear
    matrix scramble and a digital shift, bit for bit those of
    `scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random(n)`.

    Direction numbers are Joe & Kuo's (SIAM J. Sci. Comput. 2008), read from
    the file scipy ships, so `scipy.stats` is never imported.  The scramble
    is Matousek's (J. Complexity 1998): per coordinate a random lower-
    triangular bit matrix with unit diagonal acts on each direction number,
    most significant bit first; the random shift is the first point, and
    point k is point k - 1 XOR the direction number indexed by the lowest
    zero bit of k - 1 (the Gray-code walk)."""
    with np.load(Path(scipy.__file__).parent / "stats" / "_sobol_direction_numbers.npz") as f:
        vinit, poly = f["vinit"], f["poly"]
    if d > len(poly):
        raise ValidationError(f"a Sobol grid has at most {len(poly)} coordinates, got {d}")
    v = np.ones((d, SOBOL_BITS), dtype=np.int64)
    for row in range(1, d):
        p = int(poly[row])
        m = p.bit_length() - 1
        col = [int(x) for x in vinit[row, :m]]
        for j in range(m, SOBOL_BITS):
            new = col[j - m]
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= col[j - k - 1] << (k + 1)
            col.append(new)
        v[row] = col
    msb = np.arange(SOBOL_BITS - 1, -1, -1)
    v <<= msb
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(d, SOBOL_BITS), dtype=np.uint32) @ (
        np.uint32(1) << np.arange(SOBOL_BITS, dtype=np.uint32))
    ltm = np.tril(rng.integers(2, size=(d, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32))
    ltm = ltm.astype(np.int64)
    ltm[:, np.arange(SOBOL_BITS), np.arange(SOBOL_BITS)] = 1
    bits = (v[:, :, None] >> msb) & 1  # bits of each v[c, j], most significant first
    v = (((bits @ ltm.transpose(0, 2, 1)) & 1) << msb).sum(axis=2)
    k = np.arange(1, n)
    steps = np.vstack([shift[None].astype(np.int64), v.T[np.log2(k & -k).astype(np.intp)]])
    return np.bitwise_xor.accumulate(steps, axis=0)[:n] * (1.0 / 2 ** SOBOL_BITS)


def make_theta_grid(truth_set, half_width: float, count: int, seed: int):
    """Scrambled-Sobol grid in the box of half-width around the truth (the
    points of `qmc.Sobol(p, scramble=True, seed=seed)`, drawn by
    `scrambled_sobol` without importing `scipy.stats`); the reported domain
    diameter C1 is measured from the realized points."""
    if count < 1:
        raise GridEmpty("grid needs at least one point")
    center = flatten_theta_set(truth_set)
    offsets = (2.0 * scrambled_sobol(center.size, count, seed) - 1.0) * half_width
    return [unflatten_theta_set(truth_set, center + off) for off in offsets]


def stacked_errors(theta_set, truth_set, pis_list, model: MoLRMoGModel,
                   sched: DiffusionSchedule, t: float, X: np.ndarray) -> np.ndarray:
    """Per-sample loss summed over subspaces, on encoded ambient points."""
    return sum(sm_errors(theta, truth, pis, sched, t, encode(sub, X))
               for theta, truth, pis, sub in zip(theta_set, truth_set, pis_list,
                                                 model.subspaces))


def estimation_gap_experiment(model: MoLRMoGModel, theta_grid, n_schedule,
                              trials: int, sched: DiffusionSchedule, t: float,
                              rng, n_mc: int = 1_000_000) -> EstimationReport:
    """Trial-averaged sup-gap between population and empirical loss per n.

    The population loss per grid point is a Monte Carlo estimate on n_mc
    fresh samples, strictly larger than every n under test; the sup runs
    over the finite grid, and the rate is the fitted log-log slope.
    """
    if not theta_grid:
        raise GridEmpty("theta grid is empty")
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    n_schedule = sorted(int(n) for n in n_schedule)
    if len(set(n_schedule)) < 2:
        raise ValidationError(f"the rate fit needs two distinct n, got {n_schedule}")
    rng = np.random.default_rng(rng)
    subs = model.subspaces
    truth_set = tuple(from_model_subspace(sub)[0] for sub in subs)
    pis_list = [sub.weights for sub in subs]
    # every kernel is fixed by (theta, t): factor each once, before any data
    truth_kernels = [mixture_kernel(th, pis, sched, t) for th, pis in zip(truth_set, pis_list)]
    grid_kernels = [[mixture_kernel(th, pis, sched, t) for th, pis in zip(th_set, pis_list)]
                    for th_set in theta_grid]

    def noised_ambient(n, gen):
        data = sample_data(model, n, gen)
        return forward_noise(data.x, sched, t, gen)

    def losses_on(X):
        """(per-theta mean, per-theta variance) over the dataset."""
        Zs = [encode(sub, X) for sub in subs]
        true_scores = [kern.score(Z) for kern, Z in zip(truth_kernels, Zs)]
        means = np.empty(len(theta_grid))
        varis = np.empty(len(theta_grid))
        for gi, kernels in enumerate(grid_kernels):
            ell = np.zeros(X.shape[0])
            for kern, Z, s_true in zip(kernels, Zs, true_scores):
                ell += np.sum((kern.score(Z) - s_true) ** 2, axis=-1)
            means[gi] = ell.mean()
            varis[gi] = ell.var()
        return means, varis

    X_pop = noised_ambient(n_mc, rng)
    pop_mean, pop_var = losses_on(X_pop)
    sigma2 = float(np.max(pop_var))
    pop_stderr_max = float(np.max(np.sqrt(pop_var / n_mc)))

    gaps = np.zeros((trials, len(n_schedule)))
    for tr in range(trials):
        for ni, n in enumerate(n_schedule):
            X = noised_ambient(n, rng)
            emp_mean, _ = losses_on(X)
            gaps[tr, ni] = float(np.max(np.abs(pop_mean - emp_mean)))
    mean_gap = gaps.mean(axis=0)
    stderr = gaps.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros_like(mean_gap)
    slope = float(np.polyfit(np.log(n_schedule), np.log(mean_gap), 1)[0])

    flat = np.stack([flatten_theta_set(th) for th in theta_grid])
    diffs = flat[:, None, :] - flat[None, :, :]
    C1 = float(np.max(np.linalg.norm(diffs, axis=-1)))
    p = flat.shape[1]
    rows = [(n, float(g), float(se)) for n, g, se in zip(n_schedule, mean_gap, stderr)]
    return EstimationReport(rows=rows, slope=slope, C1=C1, sigma2=sigma2, p=p,
                            pop_stderr_max=pop_stderr_max)


def estimation_gap_bound(n: int, C1: float, L: float, L_l: float, sigma2: float,
                      p: int, delta: float = 0.05) -> float:
    """High-probability estimation-gap bound instantiated with measured
    constants: Rademacher term C1 L L_l sqrt(p/n) plus the deviation term
    sigma log(2) sqrt(log(1/delta)/n)."""
    return C1 * L * L_l * math.sqrt(p / n) + math.sqrt(sigma2) * math.log(2.0) * math.sqrt(
        math.log(1.0 / delta) / n
    )
