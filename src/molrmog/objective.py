"""Lipschitz constants, and the estimation-gap study of the score-matching loss.

The loss is the mean squared score error against the known truth, so it
vanishes identically at the true parameters: the approximation error of this
family is exactly zero and every gap measured here is pure estimation error.

The estimation-gap experiment evaluates its theta grid in tiles of g grid
points by nb rows, sized by `calculus.BLOCK_ELEMENTS` over the kernel width
L + R, through one kernel of all grid points per subspace
(`score.mixture_kernel` on a list).  The score is (M^T z - x^T) / gamma^2, so
against the target x^T + gamma^2 s*^T of the true score s* the per-sample
loss is |M^T z - target|^2 / gamma^4, formed in the kernel pass's own scratch
by `stacked_errors`.  Block means, and the population's variances, merge by
the pairwise update of Chan, Golub & LeVeque (1983), so memory is bounded in
the population size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .calculus import BLOCK_ELEMENTS
from .errors import GridEmpty, ValidationError
from .model import MoLRMoGModel, encode, forward_noise, sample_data
from .schedule import DiffusionSchedule, coefficients
from .score import mixture_kernel


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
    if not 0 < half_width < math.inf:
        raise ValidationError(f"half_width must be positive and finite, got {half_width!r}")
    center = flatten_theta_set(truth_set)
    offsets = (2.0 * scrambled_sobol(center.size, count, seed) - 1.0) * half_width
    return [unflatten_theta_set(truth_set, center + off) for off in offsets]


def stacked_errors(kernels, Zs, targets, sets: slice = slice(None)) -> np.ndarray:
    """Per-sample loss of the grid points `sets` on one row block, summed over
    subspaces, (g, rows): sum_k |s_theta(z_k) - s*(z_k)|^2.  kernels[k] holds
    every grid point's parameters of subspace k at one t, Zs[k] is the row
    block encoded in subspace k, and targets[k] = Zs[k]^T + gamma^2 s*^T
    (d, rows) for the true score s* there.  The score is (M^T z - x^T) /
    gamma^2 (`score.NoisedMixture`), so the gap is |M^T z - target|^2 /
    gamma^4, formed in the pass's own M^T z scratch with the points on the
    last axis."""
    ell = 0.0
    for kern, Z, target in zip(kernels, Zs, targets):
        mz = kern._pass(Z, sets=sets)[1][-1]
        mz -= target
        np.square(mz, out=mz)
        ell += mz.sum(axis=1) / (kern.g2 * kern.g2)
        del mz  # one pass's scratch alive at a time
    return ell


def estimation_gap_experiment(model: MoLRMoGModel, theta_grid, n_schedule,
                              trials: int, sched: DiffusionSchedule, t: float,
                              rng, n_mc: int = 1_000_000) -> EstimationReport:
    """Trial-averaged sup-gap between population and empirical loss per n.

    The population loss per grid point is a Monte Carlo estimate on n_mc
    fresh samples, strictly larger than every n under test; the sup runs
    over the finite grid, and the rate is the fitted log-log slope.

    Each dataset's losses come in tiles of g grid points by nb rows, one
    `stacked_errors` call each, sized by `calculus.BLOCK_ELEMENTS` over the
    kernel width L + R: nb = min(n, BLOCK_ELEMENTS // (L + R)) and g =
    BLOCK_ELEMENTS // ((L + R) nb).  A small dataset takes the whole grid in
    one call, and the population one grid point per row block, so memory is
    bounded in n_mc.  The per-block means, and the population's variances,
    merge by the pairwise update of Chan, Golub & LeVeque (1983).
    """
    if not theta_grid:
        raise GridEmpty("theta grid is empty")
    if trials < 1:
        raise ValidationError(f"need at least one trial, got {trials}")
    n_schedule = sorted(int(n) for n in n_schedule)
    if len(set(n_schedule)) < 2:
        raise ValidationError(f"the rate fit needs two distinct n, got {n_schedule}")
    if not n_mc > n_schedule[-1]:
        raise ValidationError(f"the population n_mc = {n_mc} must be larger than every n "
                              f"under test, up to {n_schedule[-1]}")
    rng = np.random.default_rng(rng)
    subs = model.subspaces
    # every kernel is fixed by (theta, t): factor each once, before any data,
    # the grid's as one kernel of len(theta_grid) parameter sets per subspace
    truth_kernels = [mixture_kernel(sub, sub.weights, sched, t) for sub in subs]
    grid_kernels = [mixture_kernel([th_set[k] for th_set in theta_grid], sub.weights, sched, t)
                    for k, sub in enumerate(subs)]
    width = max(kern.M.shape[1] for kern in grid_kernels)

    def noised_ambient(n, gen):
        data = sample_data(model, n, gen)
        return forward_noise(data.x, sched, t, gen)

    def losses_on(X, spread=False):
        """(per-theta mean, per-theta variance) over the dataset; the variance
        only with spread, since only the population's is read."""
        nb = max(1, min(len(X), BLOCK_ELEMENTS // width))
        g = max(1, BLOCK_ELEMENTS // (width * nb))
        means, m2 = np.zeros(len(theta_grid)), np.zeros(len(theta_grid))
        for start in range(0, len(X), nb):
            # column-major encodings, so each pass reads its x^T in place
            blocks = [np.asfortranarray(encode(sub, X[start:start + nb])) for sub in subs]
            targets = [Z.T + kern.g2 * kern.score(Z).T for kern, Z in zip(truth_kernels, blocks)]
            rows = len(blocks[0])
            for first in range(0, len(theta_grid), g):
                sets = slice(first, first + g)
                ell = stacked_errors(grid_kernels, blocks, targets, sets)
                # Chan et al.'s update of the running (count start, mean,
                # M2) by this block's (rows, mean, M2); exact on the first block
                mean = ell.mean(axis=1)
                delta = mean - means[sets]
                means[sets] += delta * (rows / (start + rows))
                if spread:
                    ell -= mean[:, None]
                    m2[sets] += np.square(ell, out=ell).sum(axis=1) + (
                        np.square(delta) * (start * rows / (start + rows)))
        return means, (m2 / len(X) if spread else None)

    X_pop = noised_ambient(n_mc, rng)
    pop_mean, pop_var = losses_on(X_pop, spread=True)
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


# failure probability of the high-probability estimation-gap bound
BOUND_DELTA = 0.05


def estimation_gap_bound(n: int, C1: float, L: float, L_l: float, sigma2: float, p: int) -> float:
    """Estimation-gap bound that holds with probability 1 - BOUND_DELTA,
    instantiated with measured constants: Rademacher term C1 L L_l sqrt(p/n)
    plus the deviation term sigma log(2) sqrt(log(1/BOUND_DELTA)/n)."""
    return C1 * L * L_l * math.sqrt(p / n) + math.sqrt(sigma2) * math.log(2.0) * math.sqrt(
        math.log(1.0 / BOUND_DELTA) / n
    )
