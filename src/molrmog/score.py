"""Exact score functions for noised low-rank Gaussian mixtures.

Every quantity of a noised mixture sum_l pi_l N(s mu_l, Sigma_l) with
Sigma_l = s^2 U_l U_l^T + gamma^2 I comes from one kernel, `NoisedMixture`,
built once per (means, factors, weights, s, gamma).  Per component it caches
the shifted mean s mu_l, the Woodbury factor

    W_l = s chol(gamma^2 I_r + s^2 U_l^T U_l)^{-1} U_l^T        (r x d)

so that Sigma_l^{-1} v = (v - W_l^T W_l v) / gamma^2, and the constant
log pi_l - (d log 2 pi + log det Sigma_l) / 2 with

    log det Sigma_l = 2 (d - r) log gamma + log det(gamma^2 I_r + s^2 U_l^T U_l).

No dense covariance is ever formed, and the identities stay exact for
arbitrary U (the orthonormal-columns projection form is a special case).  One
pass over x gives the residuals q_l = Sigma_l^{-1} (x - s mu_l) and the
log-joints; responsibilities, the score -sum_l r_l q_l and the log density
follow from them.  The pass works in place in one (d, n) scratch array
shared by all components and in the residual array it returns, and for
rank-one factors it forms W_l^T (W_l rho) as a broadcast product, which is
exact, instead of a k = 1 matrix product.  The latent, ambient (means A mu,
factors A U) and tied two-mode functions below are thin wrappers over the
kernel; a single component is the kernel with one component of weight 1.
Every function accepts a single point (d,) or a batch (n, d) and returns a
matching shape; `_batch` reads both, and it is the one place that refuses a
batch of zero rows (EmptyDataset), for the scores here and for every loss,
gradient and curvature reduction built on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyDataset, SingularNoise
from .model import MoLRMoGModel, _as_factor, ambient_components
from .schedule import DiffusionSchedule, coefficients

LOG_2PI = float(np.log(2.0 * np.pi))


def _require_noise(gamma: float) -> None:
    if not (gamma > 0):
        raise SingularNoise(f"gamma must be positive, got {gamma}")


def _batch(x: np.ndarray, d: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != d:
            raise DimensionMismatch(f"expected point of length {d}, got {x.shape[0]}")
        return x[None, :], True
    if x.shape[-1] != d:
        raise DimensionMismatch(f"expected points of length {d}, got {x.shape[-1]}")
    if len(x) == 0:
        raise EmptyDataset("need at least one point, got an empty batch")
    return x, False


class NoisedMixture:
    """sum_l pi_l N(s mu_l, s^2 U_l U_l^T + gamma^2 I) with every component's
    solve and log-determinant factored once (see the module docstring)."""

    def __init__(self, means, factors, weights, s: float, gamma: float):
        _require_noise(gamma)
        self.centers = s * np.array(means, dtype=float)  # (L, d)
        self.d = d = self.centers.shape[1]
        self.g2 = gamma * gamma
        self.W = []  # per component, (r, d)
        logdet = np.empty(len(self.centers))
        for l, U in enumerate(_as_factor(U) for U in factors):
            r = U.shape[1]
            logdet[l] = 2.0 * (d - r) * math.log(gamma)
            if r:
                chol = np.linalg.cholesky(self.g2 * np.eye(r) + (s * s) * (U.T @ U))
                self.W.append(s * _lower_solve(chol, U.T))
                logdet[l] += 2.0 * np.sum(np.log(np.diag(chol)))
            else:
                self.W.append(np.zeros((0, d)))
        self.const = np.log(np.asarray(weights, dtype=float)) - 0.5 * (d * LOG_2PI + logdet)

    def solve(self, l: int, v: np.ndarray) -> np.ndarray:
        """Sigma_l^{-1} v for v of shape (..., d)."""
        W = self.W[l]
        return (v - (v @ W.T) @ W) / self.g2

    def _pass(self, x: np.ndarray):
        """Residuals (L, d, n), normalized weights (L, n) and log density (n,);
        points run along the last axis so numpy's inner loops are long.

        Every component works in place in one (d, n) scratch array, rho, and
        its own residual slot, which first holds W^T W rho; x^T waits in the
        last slot, which the last component overwrites only after reading it.
        A pass allocates q, the log-joints and rho, and no other (d, n) array."""
        q = np.empty((len(self.W), self.d, len(x)))
        logj = np.empty((len(self.W), len(x)))
        xt = q[-1]
        np.copyto(xt, x.T)
        rho = np.empty_like(xt)
        for l, (c, W, ql) in enumerate(zip(self.centers, self.W, q)):
            np.subtract(xt, c[:, None], out=rho)
            if len(W) == 1:
                # W^T (W rho) for r = 1: one exact product per entry, as the
                # k = 1 GEMM gives, without its overhead
                np.multiply(W.T, W @ rho, out=ql)
            else:
                np.matmul(W.T, W @ rho, out=ql)
            np.subtract(rho, ql, out=ql)
            ql /= self.g2
            rho *= ql
            np.sum(rho, axis=0, out=logj[l])
            logj[l] *= 0.5
            np.subtract(self.const[l], logj[l], out=logj[l])
        top = logj.max(axis=0)
        logj -= top
        w = np.exp(logj, out=logj)
        total = w.sum(axis=0)
        w /= total
        return q, w, top + np.log(total)

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One pass over x of shape (n, d): residuals q (L, n, d),
        responsibilities r (n, L) and the mixture log density (n,)."""
        q, w, logp = self._pass(x)
        return q.transpose(0, 2, 1), w.T, logp

    def score(self, x: np.ndarray) -> np.ndarray:
        """-sum_l r_l(x) Sigma_l^{-1} (x - s mu_l), summed in place on the
        pass's residuals; the result is a fresh array."""
        xb, single = _batch(x, self.d)
        q, w, _ = self._pass(xb)
        out = q[0]
        out *= w[0]
        for ql, wl in zip(q[1:], w[1:]):
            ql *= wl
            out += ql
        out = np.negative(out).T
        return out[0] if single else out

    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        """Posterior component probabilities, max-shifted before exp."""
        xb, single = _batch(x, self.d)
        r = self.evaluate(xb)[1]
        return r[0] if single else r

    def log_density(self, x: np.ndarray) -> np.ndarray | float:
        """log of the mixture density, max-shifted log-sum-exp of the log-joints."""
        xb, single = _batch(x, self.d)
        out = self.evaluate(xb)[2]
        return float(out[0]) if single else out


class _FlatParams:
    """Flatten order shared by both parameterizations: the means of every
    block first, then every factor, block-major, each U raveled column-major."""

    @property
    def d(self) -> int:
        return self.blocks[0][0].shape[0]

    @property
    def dim(self) -> int:
        return sum(mu.size + U.size for mu, U in self.blocks)

    def flatten(self) -> np.ndarray:
        mus = [mu for mu, _ in self.blocks]
        us = [U.ravel(order="F") for _, U in self.blocks]
        return np.concatenate(mus + us)

    @property
    def columns(self) -> list[tuple[slice, slice]]:
        """(mean columns, factor columns) of each block in the flat layout."""
        out, m, u = [], 0, sum(mu.size for mu, _ in self.blocks)
        for mu, U in self.blocks:
            out.append((slice(m, m + mu.size), slice(u, u + U.size)))
            m, u = m + mu.size, u + U.size
        return out

    def _split(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dim,):
            raise DimensionMismatch(f"expected flat vector of length {self.dim}")
        return [(vec[m], vec[u].reshape(U.shape, order="F"))
                for (m, u), (_, U) in zip(self.columns, self.blocks)]


@dataclass(frozen=True)
class LatentParams(_FlatParams):
    """Trainable parameters (mu_l, U_l) of one subspace's free mixture."""

    components: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        comps = tuple(
            (np.asarray(mu, dtype=float), _as_factor(U)) for mu, U in self.components
        )
        object.__setattr__(self, "components", comps)
        d = comps[0][0].shape[0]
        for mu, U in comps:
            if mu.shape[0] != d or U.shape[0] != d:
                raise DimensionMismatch("inconsistent component dimensions")

    @property
    def blocks(self):
        return self.components

    def unflatten(self, vec: np.ndarray) -> "LatentParams":
        return LatentParams(tuple(self._split(vec)))

    def mixture(self, pis) -> tuple["LatentParams", np.ndarray]:
        """The free mixture these parameters define, with its weights."""
        return self, pis

    @property
    def tie(self) -> tuple[tuple[int, float], ...]:
        """(block, mean sign) each free-mixture component comes from."""
        return tuple((m, 1.0) for m in range(len(self.components)))


@dataclass(frozen=True)
class SymmetricParams(_FlatParams):
    """Tied two-mode parameterization: means at +/- s mu, shared factor U.

    It is the free mixture (mu, -mu, U, U) with weights (1/2, 1/2); the tie
    theta_free = T (mu, U) is linear, so derivatives pull back as J T:
    J_mu = J_mu+ - J_mu-, J_U = J_U+ + J_U-.
    """

    mu: np.ndarray
    U: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "U", _as_factor(self.U))
        if self.mu.ndim != 1 or self.U.ndim != 2 or self.U.shape[0] != len(self.mu):
            raise DimensionMismatch(f"need a mean vector and a factor with as many rows, got "
                                    f"shapes {self.mu.shape} and {self.U.shape}")

    @property
    def blocks(self):
        return ((self.mu, self.U),)

    def unflatten(self, vec: np.ndarray) -> "SymmetricParams":
        return SymmetricParams(*self._split(vec)[0])

    def mixture(self, pis) -> tuple[LatentParams, np.ndarray]:
        """The free mixture these parameters define, pis ignored: means
        +/- mu, the shared factor U and weights (1/2, 1/2)."""
        return LatentParams(((self.mu, self.U), (-self.mu, self.U))), np.array([0.5, 0.5])

    @property
    def tie(self) -> tuple[tuple[int, float], ...]:
        """(block, mean sign) each free-mixture component comes from: both
        modes share the one block, the minus mode with its mean negated."""
        return ((0, 1.0), (0, -1.0))


def _lower_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """chol^{-1} b for a lower-triangular chol (r, r) and b (r, m), by forward
    substitution over the r rows.  Each row is scaled by the reciprocal pivot,
    as LAPACK's dtrtrs scales a row of two or more columns, so for r = 1 and
    m >= 2 the result has the bits `scipy.linalg.solve_triangular` gives, and
    otherwise it agrees with them to rounding error.  r is a factor rank, so
    the loop is short."""
    x = np.empty(b.shape)
    for i in range(len(chol)):
        x[i] = (b[i] - chol[i, :i] @ x[:i]) * (1.0 / chol[i, i])
    return x


def from_model_subspace(sub) -> tuple[LatentParams, np.ndarray]:
    """Extract (LatentParams, weights) from a model Subspace."""
    params = LatentParams(tuple((c.mu, c.U) for c in sub.components))
    return params, sub.weights


def mixture_kernel(params, pis, sched: DiffusionSchedule, t: float) -> NoisedMixture:
    """Kernel of the noised mixture params define (the tied form expands to
    its two-component equivalent)."""
    params, pis = params.mixture(pis)
    s, _, gamma = coefficients(sched, t)
    return NoisedMixture([mu for mu, _ in params.components],
                         [U for _, U in params.components], pis, s, gamma)


def responsibilities(params: LatentParams, pis, sched: DiffusionSchedule, t: float,
                     x: np.ndarray) -> np.ndarray:
    """Posterior component probabilities r_l(x), max-shifted before exp."""
    return mixture_kernel(params, pis, sched, t).responsibilities(x)


def mixture_log_density(params: LatentParams, pis, sched: DiffusionSchedule, t: float,
                        x: np.ndarray) -> np.ndarray | float:
    """log p_t(x) of the noised latent mixture (brute-force oracle hook)."""
    return mixture_kernel(params, pis, sched, t).log_density(x)


def latent_score(params: LatentParams, pis, sched: DiffusionSchedule, t: float,
                 x: np.ndarray) -> np.ndarray:
    """Score of the noised latent mixture: -(1/gamma^2) sum_l r_l delta_l."""
    return mixture_kernel(params, pis, sched, t).score(x)


def symmetric_responsibilities(mu, U, sched: DiffusionSchedule, t: float,
                               x: np.ndarray) -> np.ndarray:
    """(r_plus, r_minus) for the tied two-mode mixture; shape (n, 2) or (2,)."""
    return responsibilities(*SymmetricParams(mu=mu, U=U).mixture(None), sched, t, x)


def symmetric_score(mu, U, sched: DiffusionSchedule, t: float, x: np.ndarray) -> np.ndarray:
    """Score of the tied two-mode mixture with modes at +/- s mu, shared Sigma."""
    return latent_score(*SymmetricParams(mu=mu, U=U).mixture(None), sched, t, x)


def ambient_kernel(model: MoLRMoGModel, sched: DiffusionSchedule, t: float) -> NoisedMixture:
    """Kernel of the full ambient mixture over the flat (k, l) components:
    weights pi_l / K, mean directions A mu, low-rank factors A U."""
    s, _, gamma = coefficients(sched, t)
    return NoisedMixture(*ambient_components(model), s, gamma)


def ambient_log_density(model: MoLRMoGModel, sched: DiffusionSchedule, t: float,
                        x: np.ndarray) -> np.ndarray | float:
    """log p_t(x) of the full ambient mixture, via low-rank factors A U."""
    return ambient_kernel(model, sched, t).log_density(x)


def ambient_responsibilities(model: MoLRMoGModel, sched: DiffusionSchedule, t: float,
                             x: np.ndarray) -> np.ndarray:
    """Posterior over flat (k, l) components for ambient points."""
    return ambient_kernel(model, sched, t).responsibilities(x)


def ambient_score(model: MoLRMoGModel, sched: DiffusionSchedule, t: float,
                  x: np.ndarray) -> np.ndarray:
    """Score of the ambient mixture sum_{k,l} (1/K) pi_l N(s A mu, s^2 (AU)(AU)^T + gamma^2 I)."""
    return ambient_kernel(model, sched, t).score(x)


def conditional_score(x_t: np.ndarray, x0: np.ndarray, sched: DiffusionSchedule,
                      t: float) -> np.ndarray:
    """Score of the Gaussian transition kernel: -(x_t - s x0) / gamma^2."""
    s, _, gamma = coefficients(sched, t)
    _require_noise(gamma)
    x_t = np.asarray(x_t, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    return -(x_t - s * x0) / (gamma * gamma)
