"""Analytic parameter-derivatives of the score and curvature analysis.

Conventions fixed here and used everywhere:

  * Flatten order of theta is the one `LatentParams` and `SymmetricParams`
    share: the means of every block first, then every covariance factor,
    block-major, U column-major.  A free mixture has one block per
    component; the tied two-mode form has the single block (mu, U).  Each
    block's (mean, factor) column slices come from `_FlatParams.columns`.
  * A Jacobian J(x) is d x p: row i is the derivative of score coordinate i
    with respect to the flattened theta.  Batched forms are (n, d, p).
  * H = E[J^T J] over x from the noised mixture at theta (p x p, PSD).  The
    loss is zero at every point when theta = theta*, so its Hessian there is
    exactly 2H; the factor is carried as a flag on reports, never folded in
    silently.  `_gram_moments` is the one reduction that builds H, for the
    Hessian report, the overlap analysis and the GD step size alike.

There is one derivative code path, `_derivative_pass`.  It factors the kernel
of the free mixture the parameters define once and makes one kernel pass over
each row block of x, which yields the score, the responsibilities and each
component's pieces of the Jacobian.
`jacobian_terms` assembles those into the Jacobian split into a "self-cluster"
part (term A: component responsibilities frozen) and a responsibility-
derivative part (term B, proportional to the pairwise overlaps r_i r_j and
exponentially suppressed as the modes separate).  Term A alone is the
simplified Jacobian; A + B matches finite differences to first-principles
accuracy.  The tied two-mode form is the free mixture (mu, -mu, U, U) with
weights (1/2, 1/2); its terms are the free ones pulled back through that
linear tie, J_mu = J_mu+ - J_mu- and J_U = J_U+ + J_U-, applied as block
sums while the terms are assembled (`SymmetricParams.tie`), so it has no
derivative code of its own.  The GD gradient sum_n J_n^T (residual)_n is the
residual contraction of the same pieces (`residual_contraction`): it costs
O(n d (d + r)) per component, runs over row blocks so its temporaries stay
bounded in n, and never forms the (n, d, p) terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyDataset, RankNotOne, SingleComponent
from .model import Subspace, _as_factor, moment_match
from .schedule import DiffusionSchedule, coefficients
from .score import (
    LatentParams,
    SymmetricParams,
    _batch,
    _lower_solve,
    from_model_subspace,
    latent_score,
    mixture_kernel,
    mixture_log_density,
)

# responsibility products below this are treated as exactly zero overlap
XI_FLOOR = 1e-300

# numbers per temporary of a row-blocked reduction: a block of Jacobians
# (rows d p), of per-sample products (rows p^2) or of what one kernel pass
# allocates (rows (d L + d + L)), so memory is bounded in n and p
BLOCK_ELEMENTS = 1 << 16


def _row_blocks(X: np.ndarray, width: int):
    step = max(1, BLOCK_ELEMENTS // width)
    return (X[i : i + step] for i in range(0, X.shape[0], step))


# ---------------------------------------------------------------------------
# score / flatten dispatch shared with the optimizer


def score_of(params, pis, sched: DiffusionSchedule, t: float, x: np.ndarray) -> np.ndarray:
    """Evaluate the score under either parameterization."""
    return latent_score(*params.mixture(pis), sched, t, x)


def sample_noised(params, pis, sched: DiffusionSchedule, t: float, n: int, rng) -> np.ndarray:
    """Draw n latent points from the noised mixture defined by params."""
    if n < 1:
        raise EmptyDataset(f"need at least one sample, got n = {n}")
    rng = np.random.default_rng(rng)
    s, _, gamma = coefficients(sched, t)
    params, pis = params.mixture(pis)
    pis = np.asarray(pis, dtype=float)
    labels = rng.choice(len(pis), size=n, p=pis)
    d = params.d
    x = np.empty((n, d))
    for l, (mu, U) in enumerate(params.components):
        rows = np.nonzero(labels == l)[0]
        z1 = rng.standard_normal((len(rows), U.shape[1]))
        z2 = rng.standard_normal((len(rows), d))
        x[rows] = s * mu + s * (z1 @ U.T) + gamma * z2
    return x


# ---------------------------------------------------------------------------
# Jacobians


@dataclass(frozen=True)
class JacobianPair:
    """Per-block derivative blocks of the score at one point."""

    J_mu: tuple[np.ndarray, ...]  # each (d, d)
    J_U: tuple[np.ndarray, ...]  # each (d, d * r), columns U-column-major

    @property
    def full(self) -> np.ndarray:
        return np.hstack(list(self.J_mu) + list(self.J_U))


def _pair_from_full(full: np.ndarray, params) -> JacobianPair:
    cols = params.columns
    return JacobianPair(J_mu=tuple(full[:, m] for m, _ in cols),
                        J_U=tuple(full[:, u] for _, u in cols))


def jacobian_fd(theta, pis, sched: DiffusionSchedule, t: float, x: np.ndarray,
                h: float = 1e-5) -> JacobianPair:
    """Central finite differences of the score in every theta coordinate."""
    if not (h > 0):
        raise DimensionMismatch(f"need positive step, got {h}")
    x = np.asarray(x, dtype=float)
    vec = theta.flatten()
    cols = []
    for j in range(vec.size):
        e = np.zeros_like(vec)
        e[j] = h
        sp = score_of(theta.unflatten(vec + e), pis, sched, t, x)
        sm = score_of(theta.unflatten(vec - e), pis, sched, t, x)
        cols.append((sp - sm) / (2.0 * h))
    return _pair_from_full(np.stack(cols, axis=-1), theta)


def _derivative_pass(params, pis, sched: DiffusionSchedule, t: float, blocks):
    """Kernel passes over row blocks (rows, d) of points, with the kernel of
    the free mixture params define factored once for all of them: yields
    (s, score, r, pieces) per block.

    score is the (d, rows) sum of r_l q_l, the negated score with the points
    on the last axis, and r the (rows, L) responsibilities of the free
    mixture.  pieces yields, per component, (sign, mu_cols, U_cols, q, rm,
    Sinv, c, V, qU): the mean sign and the column slices of the block it is
    tied to; q = Sigma^{-1} (x - s mu) and c = -r (q + score), both (d, rows);
    its (rows,) responsibilities rm; Sinv = Sigma^{-1}; V = Sigma^{-1} U and
    qU = U^T q, both None for a rank-0 factor.
    """
    free, weights = params.mixture(pis)
    s, _, _ = coefficients(sched, t)
    d = free.d
    kern = mixture_kernel(free, weights, sched, t)
    cols = params.columns
    # per component, what no point changes: tie, column slices, Sinv, V and U
    fixed = []
    for m, ((_, U), (b, sign)) in enumerate(zip(free.components, params.tie)):
        V = kern.solve(m, U.T).T if U.size else None  # Sigma_m^{-1} U_m, (d, r)
        fixed.append((sign, *cols[b], kern.solve(m, np.eye(d)), V, U))

    def pieces(qs, w):
        for m, (sign, mu_cols, U_cols, Sinv, V, U) in enumerate(fixed):
            q, rm = qs[m], w[m]
            # q_m + score summed pairwise as sum_l r_l (q_m - q_l): it keeps
            # its relative accuracy where r_m r_l is far below 1
            dev = np.zeros_like(q)
            for l, ql in enumerate(qs):
                if l != m:
                    dev += w[l] * (q - ql)
            yield (sign, mu_cols, U_cols, q, rm, Sinv, (-rm) * dev, V,
                   None if V is None else U.T @ q)

    for Xb in blocks:
        qs, r, _ = kern.evaluate(Xb)
        qs, w = qs.transpose(0, 2, 1), r.T  # (L, d, rows) and (L, rows)
        score = qs[0] * w[0]
        for q, wl in zip(qs[1:], w[1:]):
            score += q * wl
        yield s, score, r, pieces(qs, w)


def jacobian_terms(params, pis, sched: DiffusionSchedule, t: float, X: np.ndarray):
    """One kernel pass over X: (score, r, termA, termB).

    score is (n, d) and r the (n, L) responsibilities of the free mixture.
    For its component m with q_m = Sigma_m^{-1} (x - s mu_m) the theta_m
    columns of the Jacobian are the self term A = r_m d(-q_m)/d(theta_m) and
    the cross term B = -r_m (q_m + score) g_m^T, g_m the gradient of
    log N_m in theta_m.  Both are (n, d, p) in params' own parameterization:
    each component's columns are added into the block it is tied to, with
    the mean columns signed.  They are built with the points on the last
    axis, so numpy's inner loops are long, and returned as transposed views.
    """
    (s, score, r, pieces), = _derivative_pass(params, pis, sched, t, [_batch(X, params.d)[0]])
    d, n = score.shape
    A = np.zeros((d, params.dim, n))
    B = np.zeros_like(A)
    for sign, mu_cols, U_cols, q, rm, Sinv, c, V, qU in pieces:
        A[:, mu_cols] += Sinv[:, :, None] * ((sign * s) * rm)
        B[:, mu_cols] += c[:, None, :] * ((sign * s) * q)
        if V is not None:
            k = V.size
            # axes (i, c, j) flatten to column c d + j of the column-major U block
            dq = (Sinv[:, None, :, None] * qU[None, :, None, :]
                  + V[:, :, None, None] * q[None, None, :, :])
            A[:, U_cols] += (dq * ((s * s) * rm)).reshape(d, k, n)
            g_U = (s * s) * (qU[:, None, :] * q[None, :, :] - V.T[:, :, None])
            B[:, U_cols] += c[:, None, :] * g_U.reshape(k, n)
    return -score.T, r, A.transpose(2, 0, 1), B.transpose(2, 0, 1)


def residual_contraction(params, pis, sched: DiffusionSchedule, t: float,
                         X: np.ndarray, target: np.ndarray):
    """Kernel passes over row blocks of X: (sq, g) with sq = sum_n |resid_n|^2,
    resid = score - target, and g = sum_n J_n^T resid_n for the exact
    Jacobian J = A + B.

    The contraction runs on the same per-component pieces as
    `jacobian_terms` and forms nothing of shape (n, d, p).  With R the (d, n)
    residual, R_m its columns weighted by r_m and e = sum_i R * c, component m adds
    sign s (Sigma^{-1} sum_n R_m + q e) to its mean columns and
    s^2 (qU (Sigma^{-1} R_m)^T + (V^T R_m + qU e) q^T - V^T sum_n e) to its
    factor columns, c-major like A's U block: O(n d (d + r)) per component.
    Both sums run over row blocks sized by `BLOCK_ELEMENTS`, with one kernel
    factored for all of them, so a call's temporaries stay that small
    whatever n is; the sums are the single-block ones up to rounding.
    """
    Xb, _ = _batch(X, params.d)
    # per point, one kernel pass allocates L residuals, rho and L log-joints
    d, L = params.d, len(params.tie)
    width = d * L + d + L
    passes = _derivative_pass(params, pis, sched, t, _row_blocks(Xb, width))
    sq, g = 0.0, np.zeros(params.dim)
    for (s, score, _, pieces), T in zip(passes, _row_blocks(target, width)):
        resid = -score.T - T
        sq += np.sum(np.sum(resid ** 2, axis=-1))
        R = resid.T
        for sign, mu_cols, U_cols, q, rm, Sinv, c, V, qU in pieces:
            Rm = R * rm
            e = np.einsum("in,in->n", R, c)
            g[mu_cols] += (sign * s) * (Sinv.T @ Rm.sum(axis=1) + q @ e)
            if V is not None:
                G = qU @ (Sinv.T @ Rm).T + (V.T @ Rm + qU * e) @ q.T - V.T * e.sum()
                g[U_cols] += (s * s) * G.ravel()
    return float(sq), g


def exact_jacobian(params, pis, sched: DiffusionSchedule, t: float,
                   X: np.ndarray) -> np.ndarray:
    """Batched (n, d, p) exact Jacobian A + B under either parameterization."""
    _, _, J, B = jacobian_terms(params, pis, sched, t, X)
    J += B
    return J


def jacobian_exact_terms(mu, U, sched: DiffusionSchedule, t: float,
                         x: np.ndarray) -> tuple[JacobianPair, JacobianPair]:
    """Exact tied two-mode Jacobian split at one point; A + B matches FD."""
    p = SymmetricParams(mu=mu, U=U)
    _, _, termA, termB = jacobian_terms(p, None, sched, t, x)
    return _pair_from_full(termA[0], p), _pair_from_full(termB[0], p)


# ---------------------------------------------------------------------------
# Hessian assembly


@dataclass
class HessianReport:
    H: np.ndarray  # (p, p) Monte Carlo mean of J^T J
    stderr: np.ndarray  # elementwise MC standard error of H
    mu_slice: slice
    U_slice: slice
    lambda_min: float
    lambda_min_mumu: float
    lambda_min_UU: float
    cross_norm: float  # spectral norm of the mu-U cross block
    alpha_formula: float | None
    corr_r: float
    factor2: bool = True  # loss Hessian equals 2 H

    @property
    def H_mumu(self) -> np.ndarray:
        return self.H[self.mu_slice, self.mu_slice]

    @property
    def H_UU(self) -> np.ndarray:
        return self.H[self.U_slice, self.U_slice]

    @property
    def H_muU(self) -> np.ndarray:
        return self.H[self.mu_slice, self.U_slice]


def _mu_U_slices(params) -> tuple[slice, slice]:
    n_mu = params.columns[0][1].start
    return slice(0, n_mu), slice(n_mu, params.dim)


def _gram_moments(J_blocks, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(H, stderr) of the per-sample products J_n^T J_n over (rows, d, p) blocks.

    A block's mean is one GEMM on its (rows d, p) reshape; squared deviations
    are summed about it a few rows at a time and merged across blocks by the
    pairwise update of Chan, Golub & LeVeque, so the variance never cancels.
    """
    n, H, M2 = 0, np.zeros((p, p)), np.zeros((p, p))
    for J in J_blocks:
        k = J.shape[0]
        flat = J.reshape(-1, p)
        mean = flat.T @ flat / k
        for Jr in _row_blocks(J, p * p):
            dev = np.matmul(Jr.transpose(0, 2, 1), Jr) - mean
            M2 += np.einsum("npq,npq->pq", dev, dev)
        delta = mean - H
        H += delta * (k / (n + k))
        M2 += delta * delta * (n * k / (n + k))
        n += k
    return 0.5 * (H + H.T), np.sqrt(M2) / n


def hessian_from_samples(params, pis, sched: DiffusionSchedule, t: float,
                         X: np.ndarray, jac_mode: str = "exact") -> HessianReport:
    """Assemble H = mean_x J(x)^T J(x) over the given sample set."""
    Xb, _ = _batch(X, params.d)
    blocks = (_jacobian_by_mode(params, pis, sched, t, rows, jac_mode)
              for rows in _row_blocks(Xb, params.d * params.dim))
    return _finish_report(params, pis, sched, t, *_gram_moments(blocks, params.dim))


def _jacobian_by_mode(params, pis, sched, t, X, jac_mode):
    if jac_mode == "exact":
        return exact_jacobian(params, pis, sched, t, X)
    if jac_mode == "simplified":
        return jacobian_terms(params, pis, sched, t, X)[2]
    if jac_mode == "fd":
        rows = [jacobian_fd(params, pis, sched, t, x).full for x in np.atleast_2d(X)]
        return np.stack(rows, axis=0)
    raise DimensionMismatch(f"unknown jac_mode {jac_mode!r}")


def _finish_report(params, pis, sched, t, H, stderr) -> HessianReport:
    mu_sl, U_sl = _mu_U_slices(params)
    evals = np.linalg.eigvalsh(H)
    Hmm = H[mu_sl, mu_sl]
    Huu = H[U_sl, U_sl]
    Hcross = H[mu_sl, U_sl]
    lam_mu = float(np.linalg.eigvalsh(Hmm)[0]) if Hmm.size else float("nan")
    lam_uu = float(np.linalg.eigvalsh(Huu)[0]) if Huu.size else float("nan")
    cross = float(np.linalg.norm(Hcross, 2)) if Hcross.size else 0.0
    corr_r = 0.0
    if Hcross.size and lam_mu > 0 and lam_uu > 0:
        corr_r = cross / np.sqrt(lam_mu * lam_uu)
    try:
        if isinstance(params, SymmetricParams):
            alpha = alpha_symmetric(params.mu, params.U, sched, t)
        else:
            alpha = alpha_asymmetric(params, pis, sched, t)
    except (RankNotOne, SingleComponent):
        alpha = None
    return HessianReport(
        H=H,
        stderr=stderr,
        mu_slice=mu_sl,
        U_slice=U_sl,
        lambda_min=float(evals[0]),
        lambda_min_mumu=lam_mu,
        lambda_min_UU=lam_uu,
        cross_norm=cross,
        alpha_formula=alpha,
        corr_r=float(corr_r),
    )


def hessian_empirical(theta_star, pis, sched: DiffusionSchedule, t: float,
                      n_mc: int, rng, jac_mode: str = "exact") -> HessianReport:
    """Monte Carlo H = E[J^T J] at theta_star over the noised mixture."""
    X = sample_noised(theta_star, pis, sched, t, n_mc, rng)
    return hessian_from_samples(theta_star, pis, sched, t, X, jac_mode=jac_mode)


# ---------------------------------------------------------------------------
# closed-form spectrum of M M^T for M = (a^T b) I + b a^T


@dataclass(frozen=True)
class MMTopEigs:
    lambda_min: float
    lambda_max: float
    bulk: float
    spectrum: np.ndarray


def mmtop_eigs(a: np.ndarray, b: np.ndarray) -> MMTopEigs:
    """Spectrum of M M^T with M = (a^T b) I + b a^T, in closed form.

    The bulk eigenvalue (a^T b)^2 has multiplicity n - 2; the two edge
    eigenvalues live in span{a, b}.  M M^T is positive definite iff a^T b
    is nonzero.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise DimensionMismatch(f"length mismatch {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise DimensionMismatch("need vectors of length >= 2")
    c = float(a @ b)
    na2 = float(a @ a)
    nb2 = float(b @ b)
    disc = np.sqrt(na2 * nb2 * (8.0 * c * c + na2 * nb2))
    mu1 = 0.5 * (4.0 * c * c + na2 * nb2 + disc)
    mu2 = 0.5 * (4.0 * c * c + na2 * nb2 - disc)
    mu2 = max(mu2, 0.0)  # clip tiny negative round-off
    bulk = c * c
    spectrum = np.sort(np.concatenate([np.full(n - 2, bulk), [mu1, mu2]]))
    return MMTopEigs(lambda_min=float(mu2), lambda_max=float(max(mu1, bulk)),
                     bulk=bulk, spectrum=spectrum)


# ---------------------------------------------------------------------------
# strong-convexity constants


def _rank_one_floor(mu, U, s: float, gamma: float) -> float:
    """min(s^2/(s^2 + gamma^2)^2, lambda_min(M M^T)) for a rank-one factor U:
    the closed-form curvature floor of one mode's mean and factor blocks."""
    U = _as_factor(U)
    if U.shape[1] != 1:
        raise RankNotOne(f"closed-form curvature needs a rank-1 factor, got rank {U.shape[1]}")
    return min(s * s / (s * s + gamma * gamma) ** 2, mmtop_eigs(U.ravel(), mu).lambda_min)


def alpha_symmetric(mu, U, sched: DiffusionSchedule, t: float) -> float:
    """Curvature lower bound for the tied two-mode model (rank-one U)."""
    s, _, gamma = coefficients(sched, t)
    return float(_rank_one_floor(mu, U, s, gamma))


def alpha_asymmetric(params: LatentParams, pis, sched: DiffusionSchedule, t: float) -> float:
    """Curvature lower bound for a free mixture of rank-one components:
    per-component mean curvature pi_l s^2/(s^2+gamma^2)^2 and factor
    curvature pi_l times the closed-form minimum eigenvalue."""
    s, _, gamma = coefficients(sched, t)
    return float(min(w * _rank_one_floor(mu, U, s, gamma)
                     for w, (mu, U) in zip(np.asarray(pis, dtype=float), params.components)))


# ---------------------------------------------------------------------------
# overlap and perturbation analysis


@dataclass
class OverlapConstants:
    S_mu: float
    S_U: float
    C1p: float
    C2p: float
    C: float  # C' (two-mode) or C-tilde (multi-mode)


@dataclass
class OverlapReport:
    mode: str
    xi_max: float
    eps_total: np.ndarray | None  # per-component sum of expected overlaps
    eps_overlap: float
    lambda_base: float
    constants: OverlapConstants
    alpha_eff: float
    lambda_min_H: float
    lambda_min_Hdiag: float
    delta_norm: float  # spectral norm of the discarded cross blocks
    weyl_gap: float
    hessian: HessianReport


def _overlap_blocks(params, pis, sched, t, Xb):
    """One jacobian_terms pass over row blocks of Xb.  Each block yields its
    exact Jacobian A + B, its largest pair product r_i r_j (i < j), the
    per-pair sums of r_i r_j, and its largest |B_mu|_F / xi and |B_U|_F / xi
    over samples whose overlap xi = sum_{i<j} r_i r_j is above XI_FLOOR."""
    first, second = np.triu_indices(len(params.tie), 1)
    for rows in _row_blocks(Xb, params.d * params.dim):
        _, r, A, B = jacobian_terms(params, pis, sched, t, rows)
        pairs = r[:, first] * r[:, second]
        xi = pairs.sum(axis=1)
        mask = xi > XI_FLOOR
        ratios = [np.max(np.linalg.norm(B[:, :, sl], axis=(1, 2))[mask] / xi[mask], initial=0.0)
                  for sl in _mu_U_slices(params)]
        A += B
        yield A, np.max(pairs, initial=0.0), pairs.sum(axis=0), ratios


def _overlap_constants(params, sched, t, R, ratios) -> OverlapConstants:
    s, _, gamma = coefficients(sched, t)
    S_mu = s / gamma ** 2
    S_U = s * R * R / gamma ** 2
    C1p, C2p = map(float, ratios)
    if isinstance(params, SymmetricParams):
        C = 2.0 * (S_mu + S_U) * (C1p + C2p)
    else:
        C = 2.0 * (S_mu * C1p + S_U * C2p)
    return OverlapConstants(S_mu=float(S_mu), S_U=float(S_U), C1p=C1p, C2p=C2p, C=float(C))


def constants_CprimeCtilde(params, pis, sched: DiffusionSchedule, t: float,
                           R: float, samples: np.ndarray) -> OverlapConstants:
    """Perturbation constants: sensitivity scales S_mu, S_U and the measured
    cross-term-to-overlap ratios C1', C2' combined per the composite bound."""
    ratios = np.zeros(2)
    for *_, block_ratios in _overlap_blocks(params, pis, sched, t, _batch(samples, params.d)[0]):
        ratios = np.maximum(ratios, block_ratios)
    return _overlap_constants(params, sched, t, R, ratios)


def _component_block_slices(params) -> list[np.ndarray]:
    """Index groups whose cross blocks are zeroed to form H_diag."""
    if isinstance(params, SymmetricParams):
        return [np.r_[sl] for sl in _mu_U_slices(params)]
    return [np.r_[m, u] for m, u in params.columns]


def overlap_analysis(params, pis, sched: DiffusionSchedule, t: float,
                     samples: np.ndarray, mode: str = "two_mode_sup") -> OverlapReport:
    """Overlap statistics, curvature degradation, and the Weyl decomposition.

    H is assembled from the given samples; H_diag zeroes every cross block
    between parameter groups (mean vs factor for the tied form, component vs
    component for a free mixture) and the Weyl bound
    lambda_min(H) >= lambda_min(H_diag) - |Delta H|_2 is evaluated on the
    computed matrices.  The data radius R of the constants is the largest
    sample norm.
    """
    Xb, _ = _batch(samples, params.d)
    if mode not in ("two_mode_sup", "multi_mode_expect"):
        raise DimensionMismatch(f"unknown overlap mode {mode!r}")
    L = len(params.tie)
    if mode == "two_mode_sup" and L != 2:
        raise DimensionMismatch("two_mode_sup needs exactly two components")
    if mode == "multi_mode_expect" and isinstance(params, SymmetricParams):
        raise DimensionMismatch("multi_mode_expect needs a free mixture, not the tied two-mode form")

    stats = []  # per block: largest pair product, pair sums, cross-term ratios

    def exact_jacobians():
        for J, *block_stats in _overlap_blocks(params, pis, sched, t, Xb):
            stats.append(block_stats)
            yield J

    hess = _finish_report(params, pis, sched, t, *_gram_moments(exact_jacobians(), params.dim))
    maxima, sums, ratios = zip(*stats)
    xi_pair_max = float(max(maxima))
    eps_total = None
    if mode == "two_mode_sup":
        eps_overlap = xi_pair_max
    else:
        # eps_total[l] = sum_{j != l} E[r_j r_l]
        E = np.zeros((L, L))
        E[np.triu_indices(L, 1)] = sum(sums) / Xb.shape[0]
        eps_total = (E + E.T).sum(axis=1)
        eps_overlap = float(np.max(eps_total))

    H = hess.H
    groups = _component_block_slices(params)
    # H_diag keeps the diagonal blocks, so its spectrum is theirs joined
    lam_groups = [float(np.linalg.eigvalsh(H[np.ix_(g, g)])[0]) for g in groups]
    lam_diag = min(lam_groups)
    delta = H.copy()
    for g in groups:
        delta[np.ix_(g, g)] = 0.0
    delta_norm = float(np.linalg.norm(delta, 2)) if delta.size else 0.0
    weyl_gap = hess.lambda_min - (lam_diag - delta_norm)

    # curvature floor before overlap degradation
    s, _, gamma = coefficients(sched, t)
    if mode == "two_mode_sup":
        lambda_base = (1.0 - 4.0 * eps_overlap) * min(hess.lambda_min_mumu, hess.lambda_min_UU)
    else:
        pis_arr = np.asarray(pis, dtype=float)
        lambda_base = np.inf
        for l, (mu, U) in enumerate(params.components):
            try:
                unit = _rank_one_floor(mu, U, s, gamma)
            except RankNotOne:
                unit = lam_groups[l] / pis_arr[l]
            lambda_base = min(lambda_base, (pis_arr[l] - eps_total[l]) * unit)
        lambda_base = float(lambda_base)

    R = float(np.max(np.linalg.norm(Xb, axis=1)))
    consts = _overlap_constants(params, sched, t, R, np.max(ratios, axis=0))
    alpha_eff = float(lambda_base - consts.C * eps_overlap)
    return OverlapReport(
        mode=mode,
        xi_max=xi_pair_max,
        eps_total=eps_total,
        eps_overlap=float(eps_overlap),
        lambda_base=float(lambda_base),
        constants=consts,
        alpha_eff=alpha_eff,
        lambda_min_H=hess.lambda_min,
        lambda_min_Hdiag=lam_diag,
        delta_norm=delta_norm,
        weyl_gap=float(weyl_gap),
        hessian=hess,
    )


# ---------------------------------------------------------------------------
# equivalent-Gaussian approximation error


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
        raise SingleComponent("equivalent-Gaussian error needs >= 2 components")
    eps = 0.0
    delta = 0.0
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            eps = max(eps, float(np.linalg.norm(comps[i].U - comps[j].U)))
            delta = max(delta, float(np.linalg.norm(comps[i].mu - comps[j].mu)))
    eq = moment_match(sub, sched, t)
    d = sub.d
    rng = np.random.default_rng(PROBE_SEED)
    dirs = rng.standard_normal((PROBE_DIRS, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, np.eye(d), -np.eye(d)])
    radii = np.linspace(0.0, probe_radius, PROBE_RADII + 1)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, d) + eq.mu_bar

    params, pis = from_model_subspace(sub)
    log_p = mixture_log_density(params, pis, sched, t, pts)
    # Gaussian log-density of the moment match via a dense Cholesky
    cf = np.linalg.cholesky(eq.sigma_bar)
    y = _lower_solve(cf, (pts - eq.mu_bar).T).T
    log_q = -0.5 * (d * np.log(2.0 * np.pi) + 2.0 * np.sum(np.log(np.diag(cf)))
                    + np.sum(y * y, axis=1))
    err_max = float(np.max(np.abs(log_p - log_q)))
    return eps, delta, err_max
