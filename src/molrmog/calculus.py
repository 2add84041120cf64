"""Analytic parameter-derivatives of the score and curvature analysis.

Conventions fixed here and used everywhere:

  * Flatten order of theta is the one of `LatentParams`: the means of every
    component first, then every covariance factor, component-major, U
    column-major.  The tied two-mode form `SymmetricParams` is a
    `LatentParams` with the single component (mu, U).  Each component's
    (mean, factor) column slices come from `LatentParams.columns`.
  * A Jacobian J(x) is d x p: row i is the derivative of score coordinate i
    with respect to the flattened theta.  Batched forms are (n, d, p).
  * H = E[J^T J] over x from the noised mixture at theta (p x p, PSD).  The
    loss is zero at every point when theta = theta*, so its Hessian there is
    exactly 2H.  Reports hold H itself; the GD step size doubles its
    spectrum where it needs the loss Hessian.  `_gram_mean` is the one
    reduction that builds H, for the Hessian report, the overlap analysis
    and the GD step size alike, and the report keeps H's whole spectrum, so
    no caller takes it again.

There is one derivative code path, `_derivative_pass`.  It checks the batch,
cuts it into row blocks, factors the kernel of the free mixture the parameters
define once and makes one kernel pass over each block, which yields the score,
the responsibilities and each component's pieces of the Jacobian.
`_jacobian_blocks` assembles those, block by block, into the Jacobian split
into a "self-cluster" part (term A: component responsibilities frozen) and a
responsibility-derivative part (term B, proportional to the pairwise overlaps
r_i r_j and exponentially suppressed as the modes separate), laid out (d, p,
rows) in two buffers allocated once per call; `jacobian_terms` (one block),
the Hessian and the overlap analysis read it, and `_gram_mean` reduces each
block as it lies.  Term A alone is the simplified Jacobian; A + B matches
finite differences to first-principles accuracy.  The tied two-mode form is
the free mixture (mu, -mu, U, U) with weights (1/2, 1/2); its terms are the
free ones pulled back through that linear tie, J_mu = J_mu+ - J_mu- and J_U
= J_U+ + J_U-, applied as block sums while the terms are assembled
(`SymmetricParams.tie`), so it has no derivative code of its own.  The GD
gradient sum_n J_n^T (residual)_n is the residual contraction of the same
pieces (`residual_contraction`), which reads B's responsibility factor only
through one pairwise scalar per point and component (`_cross` gives both), so
it builds no (d, rows) array per component, costs O(n d (d + r)) per
component and never forms the (n, d, p) terms.  The tie also gives both
parameterizations one curvature floor, `alpha_formula`.  The one
finite-difference loop, `central_differences`, serves `jacobian_fd` and the
CLI's score check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyDataset, RankNotOne
from .schedule import DiffusionSchedule, coefficients
from .score import (
    SymmetricParams,
    _as_factor,
    _batch,
    latent_score,
    mixture_kernel,
)

# responsibility products below this are treated as exactly zero overlap
XI_FLOOR = 1e-300

# numbers per temporary of a row-blocked reduction: a block of Jacobians
# (rows d p) or of what one kernel pass allocates (rows (d L + d + L)), so
# memory is bounded in n and p
BLOCK_ELEMENTS = 1 << 16


def _row_blocks(X: np.ndarray, width: int | None):
    """Row blocks of X of BLOCK_ELEMENTS // width rows; one block for width None."""
    step = len(X) if width is None else max(1, BLOCK_ELEMENTS // width)
    return (X[i : i + step] for i in range(0, X.shape[0], step))


# ---------------------------------------------------------------------------
# score / flatten dispatch shared with the optimizer


def score_of(params, pis, sched: DiffusionSchedule, t: float, x: np.ndarray) -> np.ndarray:
    """Evaluate the score under either parameterization."""
    return latent_score(params, pis, sched, t, x)


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
    """The score's Jacobian at one point."""

    full: np.ndarray  # (d, p), columns in the flatten order of theta


def central_differences(f, v: np.ndarray, h: float) -> np.ndarray:
    """(f(v + h e_j) - f(v - h e_j)) / 2h stacked over the j of v's last axis."""
    cols = []
    for j in range(v.shape[-1]):
        e = np.zeros(v.shape[-1])
        e[j] = h
        cols.append((f(v + e) - f(v - e)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def jacobian_fd(theta, pis, sched: DiffusionSchedule, t: float, x: np.ndarray,
                h: float = 1e-5) -> JacobianPair:
    """Central finite differences of the score in every theta coordinate."""
    if not (h > 0):
        raise DimensionMismatch(f"need positive step, got {h}")
    x = np.asarray(x, dtype=float)
    return JacobianPair(central_differences(
        lambda vec: score_of(theta.unflatten(vec), pis, sched, t, x), theta.flatten(), h))


def _derivative_pass(params, pis, sched: DiffusionSchedule, t: float, X: np.ndarray,
                     width: int | None):
    """Kernel passes over the row blocks of X that `_row_blocks(X, width)`
    cuts, with the kernel of the free mixture params define factored once for
    all of them: yields (s, score, qs, w, pieces) per block.

    score is the (d, rows) score with the points on the last axis, the
    transpose of the one `NoisedMixture.score` gives, a fresh array the
    consumer may overwrite; qs the (L, d, rows) q_l = Sigma_l^{-1} (x - s mu_l)
    and w the (L, rows) responsibilities of the free mixture.  pieces yields,
    per component, (sign, mu_cols, U_cols, q, rm, Sinv, V, qU): the mean sign
    and the column slices of the block it is tied to; its q and (rows,)
    responsibilities rm; Sinv = Sigma^{-1}; V = Sigma^{-1} U and qU = U^T q,
    zero-width for a rank-0 factor.
    """
    Xb, _ = _batch(X, params.d)
    free, weights = params.mixture(pis)
    s, _, _ = coefficients(sched, t)
    kern = mixture_kernel(free, weights, sched, t)
    cols = params.columns
    # per component, what no point changes: tie, column slices, Sinv, V and U
    fixed = []
    for m, ((_, U), (b, sign)) in enumerate(zip(free.components, params.tie)):
        V = kern.solve(m, U.T).T  # Sigma_m^{-1} U_m, (d, r)
        fixed.append((sign, *cols[b], kern.solve(m, np.eye(free.d)), V, U))

    def pieces(qs, w):
        for (sign, mu_cols, U_cols, Sinv, V, U), q, rm in zip(fixed, qs, w):
            yield sign, mu_cols, U_cols, q, rm, Sinv, V, U.T @ q

    for rows in _row_blocks(Xb, width):
        xt, work, z, _ = kern._pass(rows, residuals=True)
        qs, w = work[:-1, 0], z[:len(fixed), 0]
        yield s, kern._score(xt, work), qs, w, pieces(qs, w)


def _cross(v: np.ndarray, w: np.ndarray, m: int) -> np.ndarray:
    """-w_m sum_{l != m} w_l (v_m - v_l) = -w_m (v_m - sum_l w_l v_l) for v (L,
    ..., rows) and weights w (L, rows) summing to 1; summed pairwise, it keeps
    its relative accuracy where w_m w_l is far below 1."""
    out, tmp = np.zeros_like(v[m]), np.empty_like(v[m])
    for l, vl in enumerate(v):
        if l != m:
            out += np.multiply(np.subtract(v[m], vl, out=tmp), w[l], out=tmp)
    out *= -w[m]
    return out


def _jacobian_blocks(params, pis, sched: DiffusionSchedule, t: float, X: np.ndarray,
                     width: int | None):
    """(r, A, B) per row block of X, from one `_derivative_pass`.

    r is the (rows, L) responsibilities of the free mixture.  For its
    component m with q_m = Sigma_m^{-1} (x - s mu_m) the theta_m columns of
    the Jacobian are the self term A = r_m d(-q_m)/d(theta_m) and the cross
    term B = c_m g_m^T with c_m = -r_m (q_m + score), g_m the gradient of
    log N_m in theta_m.  Both are (d, p, rows), the points last, in params'
    own parameterization: each component's columns are added into the block
    it is tied to, with the mean columns signed.  They are written by `_terms`
    into two buffers allocated once per call for the first, largest, block,
    so the next block overwrites them.
    """
    d, p, bufs = params.d, params.dim, None
    for s, _, qs, w, pieces in _derivative_pass(params, pis, sched, t, X, width):
        size = d * p * w.shape[1]
        bufs = bufs or (np.empty(size), np.empty(size))
        A, B = (b[:size].reshape(d, p, -1) for b in bufs)
        A[...] = B[...] = 0.0
        _terms(s, qs, w, pieces, A, B)
        yield w.T, A, B


def _terms(s: float, qs: np.ndarray, w: np.ndarray, pieces, A: np.ndarray, B: np.ndarray):
    """Add every component's A and B into the zeroed (d, p, rows) A and B of one block."""
    d, _, n = A.shape
    for m, (sign, mu_cols, U_cols, q, rm, Sinv, V, qU) in enumerate(pieces):
        c = _cross(qs, w, m)
        A[:, mu_cols] += Sinv[:, :, None] * ((sign * s) * rm)
        B[:, mu_cols] += c[:, None, :] * ((sign * s) * q)
        k = V.size
        # axes (i, c, j) flatten to column c d + j of the column-major U block
        dq = (Sinv[:, None, :, None] * qU[None, :, None, :]
              + V[:, :, None, None] * q[None, None, :, :])
        A[:, U_cols] += (dq * ((s * s) * rm)).reshape(d, k, n)
        g_U = (s * s) * (qU[:, None, :] * q[None, :, :] - V.T[:, :, None])
        B[:, U_cols] += c[:, None, :] * g_U.reshape(k, n)


def jacobian_terms(params, pis, sched: DiffusionSchedule, t: float, X: np.ndarray):
    """One kernel pass over X: (r, A, B) of `_jacobian_blocks` in one block, A and B (n, d, p)."""
    r, A, B = next(_jacobian_blocks(params, pis, sched, t, X, None))
    return r, A.transpose(2, 0, 1), B.transpose(2, 0, 1)


def residual_contraction(params, pis, sched: DiffusionSchedule, t: float,
                         X: np.ndarray, target: np.ndarray):
    """Kernel passes over row blocks of X: (sq, g) with sq = sum_n |resid_n|^2,
    resid = score - target, and g = sum_n J_n^T resid_n for the exact
    Jacobian J = A + B.

    The contraction runs on the same per-component pieces as
    `jacobian_terms` and forms nothing of shape (n, d, p), nor any (d, n)
    array per component.  R is the (d, n) residual, p_l = R . q_l per point
    and e_m = R . c_m = -r_m sum_{l != m} r_l (p_m - p_l), the pairwise form
    of c_m itself.  Component m adds sign s (Sigma^{-1} R r_m + q e) to its
    mean columns and s^2 (((qU r_m) R^T) Sigma^{-1} + ((V^T R) r_m + qU e) q^T
    - V^T sum_n e) to its factor columns, c-major like A's U block, each
    weighted sum a GEMM against r_m or e: O(n d (d + r)) per component.
    Both sums run over row blocks sized by `BLOCK_ELEMENTS`, with one kernel
    factored for all of them, so a call's temporaries stay that small
    whatever n is; the sums are the single-block ones up to rounding.
    """
    # per point, one kernel pass holds about L residuals, rho and L log-joints
    d, L = params.d, len(params.tie)
    width = d * L + d + L
    passes = _derivative_pass(params, pis, sched, t, X, width)
    sq, g = 0.0, np.zeros(params.dim)
    for (s, score, qs, w, pieces), T in zip(passes, _row_blocks(target, width)):
        R = np.subtract(score, T.T, out=score)
        sq += np.sum(np.sum(R ** 2, axis=0))
        P = np.einsum("in,lin->ln", R, qs)
        for m, (sign, mu_cols, U_cols, q, rm, Sinv, V, qU) in enumerate(pieces):
            e = _cross(P, w, m)
            g[mu_cols] += (sign * s) * (Sinv.T @ (R @ rm) + q @ e)
            G = ((qU * rm) @ R.T) @ Sinv + ((V.T @ R) * rm + qU * e) @ q.T - V.T * e.sum()
            g[U_cols] += (s * s) * G.ravel()
    return float(sq), g


def exact_jacobian(params, pis, sched: DiffusionSchedule, t: float,
                   X: np.ndarray) -> np.ndarray:
    """Batched (n, d, p) exact Jacobian A + B under either parameterization."""
    _, A, B = jacobian_terms(params, pis, sched, t, X)
    return np.add(A, B, out=A)


# ---------------------------------------------------------------------------
# Hessian assembly


@dataclass
class HessianReport:
    H: np.ndarray  # (p, p) Monte Carlo mean of J^T J
    spectrum: np.ndarray  # eigenvalues of H, ascending
    mu_slice: slice
    U_slice: slice
    lambda_min_mumu: float
    lambda_min_UU: float | None  # None for a rank-0 factor block
    cross_norm: float  # spectral norm of the mu-U cross block
    alpha_formula: float | None
    corr_r: float

    @property
    def lambda_min(self) -> float:
        return float(self.spectrum[0])

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


def _gram_mean(J_blocks, p: int) -> np.ndarray:
    """H, the mean of the per-sample products J_n^T J_n over blocks J in their
    (d, p, rows) layout: each block's sum is sum_i J_i J_i^T over the (p,
    rows) slices J_i of its score coordinates, one GEMM each on the block as
    it lies, merged as a running mean."""
    n, H = 0, np.zeros((p, p))
    for J in J_blocks:
        k = J.shape[-1]
        G = sum(Ji @ Ji.T for Ji in J)
        H += (G / k - H) * (k / (n + k))
        n += k
    return 0.5 * (H + H.T)


def hessian_from_samples(params, pis, sched: DiffusionSchedule, t: float,
                         X: np.ndarray) -> HessianReport:
    """Assemble H = mean_x J(x)^T J(x), J the exact Jacobian, over the samples."""
    blocks = (np.add(A, B, out=A)
              for _, A, B in _jacobian_blocks(params, pis, sched, t, X, params.d * params.dim))
    return _finish_report(params, pis, sched, t, _gram_mean(blocks, params.dim))


def _finish_report(params, pis, sched, t, H) -> HessianReport:
    mu_sl, U_sl = _mu_U_slices(params)
    Huu = H[U_sl, U_sl]
    Hcross = H[mu_sl, U_sl]
    lam_mu = float(np.linalg.eigvalsh(H[mu_sl, mu_sl])[0])
    lam_uu = float(np.linalg.eigvalsh(Huu)[0]) if Huu.size else None
    cross = float(np.linalg.norm(Hcross, 2)) if Hcross.size else 0.0
    corr_r = 0.0
    if Hcross.size and lam_mu > 0 and lam_uu > 0:
        corr_r = cross / np.sqrt(lam_mu * lam_uu)
    try:
        alpha = alpha_formula(params, pis, sched, t)
    except RankNotOne:
        alpha = None
    return HessianReport(
        H=H,
        spectrum=np.linalg.eigvalsh(H),
        mu_slice=mu_sl,
        U_slice=U_sl,
        lambda_min_mumu=lam_mu,
        lambda_min_UU=lam_uu,
        cross_norm=cross,
        alpha_formula=alpha,
        corr_r=float(corr_r),
    )


def hessian_empirical(theta_star, pis, sched: DiffusionSchedule, t: float,
                      n_mc: int, rng) -> HessianReport:
    """Monte Carlo H = E[J^T J] at theta_star over the noised mixture."""
    X = sample_noised(theta_star, pis, sched, t, n_mc, rng)
    return hessian_from_samples(theta_star, pis, sched, t, X)


# ---------------------------------------------------------------------------
# closed-form spectrum of M M^T for M = (a^T b) I + b a^T


@dataclass(frozen=True)
class MMTopEigs:
    lambda_min: float
    lambda_max: float
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
                     spectrum=spectrum)


# ---------------------------------------------------------------------------
# strong-convexity constants


def _rank_one_floor(mu, U, s: float, gamma: float) -> float:
    """min(s^2/(s^2 + gamma^2)^2, lambda_min(M M^T)) for a rank-one factor U:
    the closed-form curvature floor of one mode's mean and factor blocks.  The
    closed form exists for rank one and d >= 2 only; RankNotOne otherwise."""
    U = _as_factor(U)
    d, r = U.shape
    if r != 1 or d < 2:
        raise RankNotOne(f"closed-form curvature needs a rank-1 factor and d >= 2, "
                         f"got rank {r} at d = {d}")
    return min(s * s / (s * s + gamma * gamma) ** 2, mmtop_eigs(U.ravel(), mu).lambda_min)


def alpha_formula(params, pis, sched: DiffusionSchedule, t: float) -> float:
    """Curvature lower bound of rank-one components: the least, over parameter
    components, of `_rank_one_floor` times the summed weight of the free modes
    tied to it (pi_l for a free mixture, 1/2 + 1/2 = 1 for the tied form)."""
    s, _, gamma = coefficients(sched, t)
    _, weights = params.mixture(pis)
    tied = np.bincount([b for b, _ in params.tie], weights=np.asarray(weights, dtype=float))
    return float(min(w * _rank_one_floor(mu, U, s, gamma)
                     for w, (mu, U) in zip(tied, params.components)))


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
    lambda_min_Hdiag: float
    delta_norm: float  # spectral norm of the discarded cross blocks
    weyl_gap: float
    hessian: HessianReport


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


def _component_block_slices(params) -> list[np.ndarray]:
    """Index groups whose cross blocks are zeroed to form H_diag; a rank-0
    tied form has no factor group."""
    if isinstance(params, SymmetricParams):
        return [np.r_[sl] for sl in _mu_U_slices(params) if sl.stop > sl.start]
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

    # per block: the largest and the summed pair products r_i r_j (i < j), and the largest
    # |B_mu|_F / xi and |B_U|_F / xi where the overlap xi = sum_{i<j} r_i r_j > XI_FLOOR
    stats = []
    first, second = np.triu_indices(L, 1)

    def exact_jacobians():
        for r, A, B in _jacobian_blocks(params, pis, sched, t, Xb, params.d * params.dim):
            pairs = r[:, first] * r[:, second]
            xi = pairs.sum(axis=1)
            mask = xi > XI_FLOOR
            ratios = [np.max(np.linalg.norm(B[:, sl], axis=(0, 1))[mask] / xi[mask],
                             initial=0.0) for sl in _mu_U_slices(params)]
            stats.append((np.max(pairs, initial=0.0), pairs.sum(axis=0), ratios))
            yield np.add(A, B, out=A)

    hess = _finish_report(params, pis, sched, t, _gram_mean(exact_jacobians(), params.dim))
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
    delta_norm = float(np.linalg.norm(delta, 2))
    weyl_gap = hess.lambda_min - (lam_diag - delta_norm)

    # curvature floor before overlap degradation
    s, _, gamma = coefficients(sched, t)
    if mode == "two_mode_sup":
        lambda_base = (1.0 - 4.0 * eps_overlap) * min(
            lam for lam in (hess.lambda_min_mumu, hess.lambda_min_UU) if lam is not None)
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
        lambda_min_Hdiag=lam_diag,
        delta_norm=delta_norm,
        weyl_gap=float(weyl_gap),
        hessian=hess,
    )
