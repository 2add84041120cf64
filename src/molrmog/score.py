"""Exact score functions for noised low-rank Gaussian mixtures.

Every quantity of a noised mixture sum_l pi_l N(s mu_l, Sigma_l) with
Sigma_l = s^2 U_l U_l^T + gamma^2 I comes from one kernel, built in two
stages: a `FactoredMixture` holds what does not depend on t (the factors side
by side, their block-diagonal Gram matrix, the log weights), once per (means,
factors, weights), and a `NoisedMixture` rescales it for one (s, gamma).  Per
component the kernel caches the shifted mean s mu_l, the Woodbury factor

    W_l = s chol(gamma^2 I_r + s^2 U_l^T U_l)^{-1} U_l^T        (r x d)

so that Sigma_l^{-1} v = (v - W_l^T W_l v) / gamma^2, and the constant
log pi_l - (d log 2 pi + log det Sigma_l) / 2 with

    log det Sigma_l = 2 (d - r) log gamma + log det(gamma^2 I_r + s^2 U_l^T U_l).

No dense covariance is ever formed, and the identities stay exact for
arbitrary U (the orthonormal-columns projection form is a special case).  One
pass over x takes, per component, rho_l = x - s mu_l, a_l = W_l rho_l and the
exact norms, for the log-joints by rho^T Sigma_l^{-1} rho = (|rho_l|^2 -
|a_l|^2) / gamma^2, then the score -sum_l r_l q_l = (M^T [r; r_l a_l] - x) /
gamma^2 by one GEMM against M = [s mu_1 ... s mu_L; W_1; ...; W_L]; only
`evaluate` and the derivative pass also take q_l = (rho_l - W_l^T a_l) /
gamma^2.  The pass works on x^T with the points last, which it reads in
place when x is column-major (the estimation encodings, the sampler's state)
and copies otherwise, and never writes; when every factor has rank one,
|a_l|^2 is one squared row, and the pass sums no rows per component.  The
kernel has a leading parameter-set axis: `mixture_kernel` on a list of G
parameters of one shape factors all G at once (one batched Cholesky and
forward substitution, in closed form when every rank is one), and one pass
evaluates any slice of the sets, each with the bits its own one-set kernel
gives; the estimation experiment's grid is the one caller, and every other
caller builds and reads a single set.  The latent and ambient (means A mu,
factors A U) functions below are thin wrappers over the kernel; the ambient
ones rescale the model's cached `ambient_mixture`, so a reverse step factors
nothing anew, and the latent ones take the tied two-mode form too, through
its free mixture; a single component is the kernel with one component of
weight 1.  Every function accepts a single point (d,) or a batch (n, d) and
returns a matching shape; `_batch` reads both, and it is the one place that
refuses a batch of zero rows (EmptyDataset), for the scores here and for
every loss, gradient and curvature reduction built on them.

`LatentParams`, a tuple of `Component(mu, U)` records, is the one latent
mixture type and owns the one flat layout; a `model.Subspace` is one (its own
theta*) with a basis A and weights, and the tied two-mode `SymmetricParams` is
one with the single component (mu, U).  `model` imports this module, so the
ambient functions here read a model by attribute.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, EmptyDataset, SingularNoise
from .schedule import DiffusionSchedule, coefficients

LOG_2PI = float(np.log(2.0 * np.pi))


def _as_factor(U) -> np.ndarray:
    """U as a float array, a vector read as a single factor column."""
    U = np.asarray(U, dtype=float)
    return U[:, None] if U.ndim == 1 else U


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


class FactoredMixture:
    """The part of a noised mixture that does not depend on (s, gamma), for
    means (L, d) and factors (d, r_l), or G sets of them, (G, L, d) and
    (G, d, r_l), sharing the weights; held with the set axis, read-only."""

    def __init__(self, means, factors, weights):
        self.means = np.array(means, dtype=float, ndmin=3)  # (G, L, d)
        self.factors = tuple(np.array(_as_factor(U), ndmin=3) for U in factors)
        self.weights = np.array(weights, dtype=float)
        self.log_weights = np.log(self.weights)
        self.d = self.means.shape[2]
        self.ranks = np.array([U.shape[2] for U in self.factors])
        # per set, the factors side by side, U = [U_1 ... U_L]; G sums each
        # component's columns and G^T G keeps the diagonal blocks of U^T U
        self.Ut = np.concatenate(self.factors, axis=2).transpose(0, 2, 1)
        self.G = np.repeat(np.eye(len(self.factors)), self.ranks, axis=1)
        self.gram = (self.Ut @ self.Ut.transpose(0, 2, 1)) * (self.G.T @ self.G)
        # every rank one: G is the identity and the Gram diagonal
        self.rank_one = bool(np.all(self.ranks == 1))
        ends = list(itertools.accumulate(self.ranks.tolist(), initial=len(self.ranks)))
        self.rows = [slice(b, e) for b, e in zip(ends, ends[1:])]
        for a in (self.means, *self.factors, self.weights, self.log_weights, self.ranks,
                  self.Ut, self.G, self.gram):
            a.setflags(write=False)


class NoisedMixture:
    """A `FactoredMixture` at one (s, gamma), with every component's solve and
    log-determinant factored (see the module docstring).

    The kernel keeps the mixture's leading parameter-set axis.  The per-point
    methods read the first set; `_pass` reads any slice of them."""

    def __init__(self, mix: FactoredMixture, s: float, gamma: float):
        _require_noise(gamma)
        self.d, self.rows, self.G, self.rank_one = mix.d, mix.rows, mix.G, mix.rank_one
        self.centers = s * mix.means  # (G, L, d)
        self.g2 = gamma * gamma
        # one Cholesky of g2 I + s^2 Gram and one forward substitution give
        # every W_l, stacked under the means in M; with every rank one it is
        # diagonal: the same bits from its root and the reciprocal pivots
        if self.rank_one:
            pivots = np.sqrt(self.g2 + (s * s) * mix.gram.diagonal(axis1=1, axis2=2))
            W = mix.Ut * (1.0 / pivots)[:, :, None]
        else:
            chol = np.linalg.cholesky(self.g2 * np.eye(mix.Ut.shape[1]) + (s * s) * mix.gram)
            pivots = chol.diagonal(axis1=1, axis2=2)
            W = _lower_solve(chol, mix.Ut)
        self.M = np.concatenate([self.centers, s * W], axis=1)  # (G, L + R, d)
        logdet = (2.0 * (self.d - mix.ranks) * math.log(gamma)
                  + (self.G @ (2.0 * np.log(pivots))[:, :, None])[:, :, 0])
        self.const = mix.log_weights - 0.5 * (self.d * LOG_2PI + logdet)

    def solve(self, l: int, v: np.ndarray) -> np.ndarray:
        """Sigma_l^{-1} v for v of shape (..., d)."""
        W = self.M[0, self.rows[l]]
        return (v - (v @ W.T) @ W) / self.g2

    def _pass(self, x: np.ndarray, residuals: bool = False, sets: slice = slice(None)):
        """(xt, work, z, (top, total)) for x (n, d) and the g parameter sets
        `sets`, with the points on the last axis so numpy's inner loops are
        long: xt (d, n) is x^T, read in place when x is column-major (a copy
        otherwise) and never written; work (k + 1, g, d, n) holds the q_l if
        asked for (k = L, else 0) and then M^T z, the score's GEMM; z (L + R,
        g, n) is the weights (L, g, n) over every r_l a_l, the sets inside
        each row so that an operation on a whole row runs over g n contiguous
        numbers; work and z share one allocation (fewer page faults); the log
        density is top + log(total), both (g, n)."""
        L, d, n = len(self.rows), self.d, len(x)
        k = L if residuals else 0
        centers, M = self.centers[sets], self.M[sets]
        g, width = M.shape[:2]
        xt = np.ascontiguousarray(x.T)
        buf = np.empty(g * ((k + 1) * d + width) * n)
        work = buf[:g * (k + 1) * d * n].reshape(k + 1, g, d, n)
        z = buf[g * (k + 1) * d * n:].reshape(width, g, n)
        rho, logj, a_rows = work[k], z[:L], [z[rows] for rows in self.rows]
        for l, (rows, a) in enumerate(zip(self.rows, a_rows)):
            W = M[:, rows]
            np.subtract(xt, centers[:, l, :, None], out=rho)
            np.matmul(W, rho, out=a.transpose(1, 0, 2))
            if residuals:
                q = work[l]
                # rank one: one exact product per entry, faster than matmul's k = 1
                for i in range(g):
                    np.dot(W[i].T, a[:, i], out=q[i])
                np.subtract(rho, q, out=q)
                q /= self.g2
            np.einsum("gin,gin->gn", rho, rho, out=logj[l])
        # the exact norms, never the expanded |x|^2 - 2 c.x + |c|^2, whose
        # rounding error grows with |x|^2 / gamma^2
        if self.rank_one:
            logj -= np.square(z[L:])
        else:
            logj -= (self.G @ np.square(z[L:]).reshape(width - L, g * n)).reshape(L, g, n)
        logj *= -0.5 / self.g2
        logj += self.const[sets].T[:, :, None]
        top = logj.max(axis=0)
        logj -= top
        w = np.exp(logj, out=logj)
        total = w.sum(axis=0)
        w /= total
        for wl, a in zip(w, a_rows):
            a *= wl
        # the score's GEMM (module docstring) into the scratch rho
        np.matmul(M.transpose(0, 2, 1), z.transpose(1, 0, 2), out=rho)
        return xt, work, z, (top, total)

    def _score(self, xt: np.ndarray, work: np.ndarray) -> np.ndarray:
        """The first set's score (M^T z - x^T) / gamma^2 from a pass, (d, n),
        into its own array so that a caller who keeps it keeps nothing else of
        the pass."""
        out = np.subtract(work[-1, 0], xt)
        out /= self.g2
        return out

    def evaluate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One pass over x of shape (n, d): residuals q (L, n, d),
        responsibilities r (n, L) and the mixture log density (n,)."""
        _, work, z, (top, total) = self._pass(x, residuals=True)
        return work[:-1, 0].transpose(0, 2, 1), z[:len(self.rows), 0].T, top[0] + np.log(total[0])

    def score(self, x: np.ndarray) -> np.ndarray:
        """The score, a fresh (n, d) array."""
        xb, single = _batch(x, self.d)
        out = self._score(*self._pass(xb)[:2]).T
        return out[0] if single else out

    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        """Posterior component probabilities, max-shifted before exp."""
        xb, single = _batch(x, self.d)
        r = self._pass(xb)[2][:len(self.rows), 0].T
        return r[0] if single else r

    def log_density(self, x: np.ndarray) -> np.ndarray | float:
        """log of the mixture density, max-shifted log-sum-exp of the log-joints."""
        xb, single = _batch(x, self.d)
        top, total = self._pass(xb)[3]
        out = top[0] + np.log(total[0])
        return float(out[0]) if single else out


class Component(NamedTuple):
    """One latent component: mean mu (d,) and covariance factor U (d, r)."""
    mu: np.ndarray
    U: np.ndarray


@dataclass(frozen=True)
class LatentParams:
    """Parameters (mu_l, U_l) of one subspace's free mixture: the trainable
    type, and the latent part of a model subspace.  Checks shapes only: a
    trained theta may hold non-finite entries, which GD reports itself."""

    components: tuple[Component, ...]

    def __post_init__(self):
        comps = tuple(Component(np.asarray(mu, dtype=float), _as_factor(U))
                      for mu, U in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise DimensionMismatch("need at least one component, got none")
        for mu, U in comps:
            # comps[0] is checked first, so len() reads a vector
            if mu.ndim != 1 or U.ndim != 2 or not 0 < len(mu) == U.shape[0] == len(comps[0].mu):
                raise DimensionMismatch(f"need nonempty mean vectors of one length and factors "
                                        f"with as many rows, got shapes {mu.shape} and {U.shape}")

    @property
    def d(self) -> int:
        return self.components[0].mu.shape[0]

    @property
    def dim(self) -> int:
        return sum(mu.size + U.size for mu, U in self.components)

    def flatten(self) -> np.ndarray:
        """Every component's mean, then every factor, each U raveled column-major."""
        mus = [mu for mu, _ in self.components]
        us = [U.ravel(order="F") for _, U in self.components]
        return np.concatenate(mus + us)

    @property
    def columns(self) -> list[tuple[slice, slice]]:
        """(mean columns, factor columns) of each component in the flat layout."""
        out, m, u = [], 0, sum(mu.size for mu, _ in self.components)
        for mu, U in self.components:
            out.append((slice(m, m + mu.size), slice(u, u + U.size)))
            m, u = m + mu.size, u + U.size
        return out

    def _split(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dim,):
            raise DimensionMismatch(f"expected flat vector of length {self.dim}")
        return [(vec[m], vec[u].reshape(U.shape, order="F"))
                for (m, u), (_, U) in zip(self.columns, self.components)]

    def unflatten(self, vec: np.ndarray) -> "LatentParams":
        return LatentParams(tuple(self._split(vec)))

    def mixture(self, pis) -> tuple["LatentParams", np.ndarray]:
        """The free mixture these parameters define, with its weights."""
        return self, pis

    @property
    def tie(self) -> tuple[tuple[int, float], ...]:
        """(component, mean sign) each free-mixture component comes from."""
        return tuple((m, 1.0) for m in range(len(self.components)))


class SymmetricParams(LatentParams):
    """Tied two-mode parameterization: means at +/- s mu, shared factor U,
    held as the one component (mu, U).

    It is the free mixture (mu, -mu, U, U) with weights (1/2, 1/2); the tie
    theta_free = T (mu, U) is linear, so derivatives pull back as J T:
    J_mu = J_mu+ - J_mu-, J_U = J_U+ + J_U-.
    """

    def __init__(self, mu, U):
        super().__init__(((mu, U),))

    @property
    def mu(self) -> np.ndarray:
        return self.components[0].mu

    @property
    def U(self) -> np.ndarray:
        return self.components[0].U

    def unflatten(self, vec: np.ndarray) -> "SymmetricParams":
        return SymmetricParams(*self._split(vec)[0])

    def mixture(self, pis) -> tuple[LatentParams, np.ndarray]:
        """The free mixture these parameters define, pis ignored: means
        +/- mu, the shared factor U and weights (1/2, 1/2)."""
        return LatentParams(((self.mu, self.U), (-self.mu, self.U))), np.array([0.5, 0.5])

    @property
    def tie(self) -> tuple[tuple[int, float], ...]:
        """(component, mean sign) each free-mixture component comes from: both
        modes share the one component, the minus mode with its mean negated."""
        return ((0, 1.0), (0, -1.0))


def _lower_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """chol^{-1} b for lower-triangular chol (..., r, r) and b (..., r, m),
    by forward substitution over the r rows, every leading index at once.
    Each row is scaled by the reciprocal pivot, as LAPACK's dtrtrs scales a
    row of two or more columns, so for r = 1 and m >= 2 the result has the
    bits `scipy.linalg.solve_triangular` gives, and otherwise it agrees with
    them to rounding error.  r is a factor rank, so the loop is short."""
    x = np.empty(b.shape)
    pivots = 1.0 / chol.diagonal(axis1=-2, axis2=-1)[..., None]
    for i in range(chol.shape[-1]):
        # row 0 subtracts an empty product, exactly 0
        rest = (chol[..., i, None, :i] @ x[..., :i, :])[..., 0, :] if i else 0.0
        x[..., i, :] = (b[..., i, :] - rest) * pivots[..., i, :]
    return x


def from_model_subspace(sub) -> tuple[LatentParams, np.ndarray]:
    """(parameters, weights) of a model subspace, which is its own parameters;
    the library passes `sub, sub.weights` itself, and the bench calls this."""
    return sub, sub.weights


def mixture_kernel(params, pis, sched: DiffusionSchedule, t: float) -> NoisedMixture:
    """Kernel of the noised mixture params define (the tied form expands to
    its two-component equivalent); a list of parameters of one shape gives one
    kernel of that many parameter sets, in order, sharing the weights pis, and
    one parameter set is read as a list of one."""
    s, _, gamma = coefficients(sched, t)
    sets = [p.mixture(pis) for p in (params if isinstance(params, list) else [params])]
    comps = [p.components for p, _ in sets]
    mix = FactoredMixture([[mu for mu, _ in c] for c in comps],
                          [[U for _, U in col] for col in zip(*comps)], sets[0][1])
    return NoisedMixture(mix, s, gamma)


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


def ambient_kernel(model, sched: DiffusionSchedule, t: float) -> NoisedMixture:
    """Kernel of the full ambient mixture over the flat (k, l) components:
    weights pi_l / K, mean directions A mu, low-rank factors A U, which a
    `model.MoLRMoGModel` factors once (`ambient_mixture`), so that each call
    only rescales it for t."""
    s, _, gamma = coefficients(sched, t)
    return NoisedMixture(model.ambient_mixture, s, gamma)


def ambient_log_density(model, sched: DiffusionSchedule, t: float,
                        x: np.ndarray) -> np.ndarray | float:
    """log p_t(x) of the full ambient mixture, via low-rank factors A U."""
    return ambient_kernel(model, sched, t).log_density(x)


def ambient_responsibilities(model, sched: DiffusionSchedule, t: float,
                             x: np.ndarray) -> np.ndarray:
    """Posterior over flat (k, l) components for ambient points."""
    return ambient_kernel(model, sched, t).responsibilities(x)


def ambient_score(model, sched: DiffusionSchedule, t: float,
                  x: np.ndarray) -> np.ndarray:
    """Score of the ambient mixture sum_{k,l} (1/K) pi_l N(s A mu, s^2 (AU)(AU)^T + gamma^2 I)."""
    return ambient_kernel(model, sched, t).score(x)
