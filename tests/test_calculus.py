import numpy as np
import pytest
from conftest import dense_gaussian_logpdf, equivalent_gaussian_error, read_only_layouts

from molrmog import calculus
from molrmog.calculus import (
    XI_FLOOR,
    alpha_formula,
    central_differences,
    exact_jacobian,
    hessian_empirical,
    hessian_from_samples,
    jacobian_fd,
    jacobian_terms,
    mmtop_eigs,
    overlap_analysis,
    residual_contraction,
    sample_noised,
    score_of,
)
from molrmog.errors import (
    DimensionMismatch,
    EmptyDataset,
    RankNotOne,
)
from molrmog.model import Subspace, random_orthonormal
from molrmog.schedule import coefficients
from molrmog.score import (
    BLOCK_ELEMENTS,
    LatentParams,
    SymmetricParams,
    mixture_kernel,
    responsibilities,
)


def test_central_differences_richardson_consistency(unit_sched):
    """Halving the step shrinks the FD error against the exact Jacobian by
    about the expected second-order factor."""
    p = SymmetricParams(mu=[1.5, 0.3], U=[[0.7], [0.2]])
    x = np.array([0.4, -0.9])
    exact = exact_jacobian(p, None, unit_sched, 0.5, x)[0]
    errs = []
    for h in (1e-3, 5e-4):
        fd = central_differences(
            lambda vec: score_of(p.unflatten(vec), None, unit_sched, 0.5, x), p.flatten(), h)
        errs.append(np.max(np.abs(fd - exact)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_symmetric_exact_matches_fd(unit_sched, vp_sched):
    rng = np.random.default_rng(0)
    for sched in (unit_sched, vp_sched):
        for t in (0.3, 1.0):
            for _ in range(5):
                d = rng.integers(2, 5)
                p = SymmetricParams(mu=rng.standard_normal(d),
                                    U=rng.standard_normal((d, 1)))
                x = rng.standard_normal(d)
                fd = jacobian_fd(p, None, sched, t, x).full
                got = exact_jacobian(p, None, sched, t, x)[0]
                assert got == pytest.approx(fd, abs=5e-7)


def test_general_jacobian_matches_fd(unit_sched):
    rng = np.random.default_rng(1)
    for _ in range(6):
        d = int(rng.integers(2, 4))
        L = int(rng.integers(2, 4))
        r = int(rng.integers(1, d + 1))
        params = LatentParams(tuple(
            (rng.standard_normal(d), rng.standard_normal((d, r))) for _ in range(L)
        ))
        pis = rng.uniform(0.2, 1.0, L)
        pis /= pis.sum()
        x = rng.standard_normal(d)
        fd = jacobian_fd(params, pis, unit_sched, 0.6, x).full
        got = exact_jacobian(params, pis, unit_sched, 0.6, x)[0]
        assert got == pytest.approx(fd, abs=5e-7)


def test_exact_terms_sum_and_blocks(unit_sched):
    p = SymmetricParams(mu=[2.0, -0.5], U=[[0.9], [0.4]])
    x = np.array([0.8, 0.1])
    termA, termB = jacobian_terms(p, None, unit_sched, 1.0, x)[1:]
    full = termA[0] + termB[0]
    assert full == pytest.approx(jacobian_fd(p, None, unit_sched, 1.0, x).full, abs=5e-7)
    simp = jacobian_terms(p, None, unit_sched, 1.0, x)[1]
    assert np.array_equal(simp, termA)
    # block shapes: one mean block (d, d) and one factor block (d, d*r)
    (mu_cols, U_cols), = p.columns
    assert termA[0][:, mu_cols].shape == (2, 2)
    assert termA[0][:, U_cols].shape == (2, 2)


def test_simplified_jacobian_accurate_when_modes_separate(unit_sched):
    """The responsibility-derivative part dies off as the modes separate, so
    the frozen-responsibility Jacobian converges to the exact one."""
    U = np.array([[0.5], [0.2]])
    errs = []
    for gap in (1.0, 4.0, 10.0):
        mu = np.array([gap / 2, 0.0])
        x = mu + np.array([1.0, 0.3])  # one noise unit off the + mode
        exact = exact_jacobian(SymmetricParams(mu=mu, U=U), None, unit_sched, 1.0, x)[0]
        simp = jacobian_terms(SymmetricParams(mu=mu, U=U), None, unit_sched, 1.0, x)[1][0]
        errs.append(np.max(np.abs(exact - simp)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-8


def test_cross_term_suppression_sweep(unit_sched):
    """|termB|/|termA| at matched positions decays monotonically with the
    mode separation measured in noise units."""
    U = np.array([[1.0], [0.0]])
    gamma = 1.0  # unit schedule at t = 1
    ratios = []
    for gap in (2.0, 4.0, 8.0):
        mu = np.array([gap * gamma / 2, 0.0])
        x = np.array([mu[0] + gamma, 0.0])
        termA, termB = jacobian_terms(SymmetricParams(mu=mu, U=U), None, unit_sched, 1.0, x)[1:]
        ratios.append(np.linalg.norm(termB[0]) / np.linalg.norm(termA[0]))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 1e-4


@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_mmtop_matches_dense_eigensolver(n):
    rng = np.random.default_rng(n)
    for _ in range(25):
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        M = (a @ b) * np.eye(n) + np.outer(b, a)
        want = np.linalg.eigvalsh(M @ M.T)
        got = mmtop_eigs(a, b)
        scale = max(1.0, want[-1])
        assert got.spectrum == pytest.approx(want, abs=1e-9 * scale)
        assert got.lambda_min == pytest.approx(want[0], abs=1e-9 * scale)
        assert got.lambda_max == pytest.approx(want[-1], abs=1e-9 * scale)


def test_mmtop_definite_iff_not_orthogonal():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    assert mmtop_eigs(a, b).lambda_min == 0.0
    assert mmtop_eigs(a, 2 * a).lambda_min > 0


def test_alpha_formula_tied_values(unit_sched):
    # s = gamma = 1: the mean-curvature branch gives 1/4
    a = alpha_formula(SymmetricParams(mu=[4.0, 0.0], U=[[1.0], [0.0]]), None, unit_sched, 1.0)
    assert a == pytest.approx(0.25)
    # orthogonal factor and mean: the closed-form branch collapses to 0
    orth = SymmetricParams(mu=[0.0, 4.0], U=[[1.0], [0.0]])
    assert alpha_formula(orth, None, unit_sched, 1.0) == 0.0


def test_alpha_formula_reduces_and_weights(unit_sched, vp_sched):
    params = LatentParams((
        ([4.0, 0.0], [[1.0], [0.0]]),
        ([-4.0, 0.0], [[1.0], [0.0]]),
    ))
    a_half = alpha_formula(params, [0.5, 0.5], unit_sched, 1.0)
    assert a_half == pytest.approx(0.5 * 0.25)
    # each component's floor is scaled by its weight
    a_w = alpha_formula(params, [0.3, 0.3], unit_sched, 1.0)
    assert a_w == pytest.approx(0.3 * 0.25)
    # the tied form's two modes of weight 1/2 both tie to its one component,
    # whose weight is then exactly 1: the bare rank-one floor, bit for bit
    tied = SymmetricParams(mu=[1.5, 0.3], U=[[0.7], [0.2]])
    for sched in (unit_sched, vp_sched):
        for t in (0.01, 0.3, 1.0):
            s, _, gamma = coefficients(sched, t)
            floor = calculus._rank_one_floor(tied.mu, tied.U, s, gamma)
            assert alpha_formula(tied, None, sched, t) == floor


@pytest.mark.parametrize("mu, U", [([1.0, 0.0], np.eye(2)), ([4.0], [[1.0]])],
                         ids=["rank2", "d1"])
@pytest.mark.parametrize("kind", ["tied", "free"])
def test_alpha_formula_needs_rank_one_and_d2(unit_sched, mu, U, kind):
    """No closed form off rank one or in one dimension, for either
    parameterization: the Hessian report's alpha is then None."""
    params, pis = ((SymmetricParams(mu=mu, U=U), None) if kind == "tied"
                   else (LatentParams(((mu, U),)), [1.0]))
    match = "rank 1 at d = 1" if len(mu) == 1 else "got rank 2"
    with pytest.raises(RankNotOne, match=match):
        alpha_formula(params, pis, unit_sched, 1.0)
    X = sample_noised(params, pis, unit_sched, 1.0, 8, 0)
    assert hessian_from_samples(params, pis, unit_sched, 1.0, X).alpha_formula is None


def test_sample_noised_moments(unit_sched):
    p = SymmetricParams(mu=[3.0, 0.0], U=[[1.0], [0.0]])
    X = sample_noised(p, None, unit_sched, 1.0, 200000, 7)
    # symmetric mixture: mean 0, var = s^2 mu mu^T + s^2 U U^T + gamma^2 I
    assert np.mean(X, axis=0) == pytest.approx([0.0, 0.0], abs=0.05)
    cov = np.cov(X.T)
    assert cov[0, 0] == pytest.approx(9.0 + 1.0 + 1.0, rel=0.02)
    assert cov[1, 1] == pytest.approx(1.0, rel=0.02)


def test_hessian_report_structure_and_oracle(unit_sched):
    p = SymmetricParams(mu=[4.0, 0.0], U=[[1.0], [0.0]])
    X = sample_noised(p, None, unit_sched, 1.0, 4000, 11)
    rep = hessian_from_samples(p, None, unit_sched, 1.0, X)
    # brute-force assembly over the same samples
    J = exact_jacobian(p, None, unit_sched, 1.0, X)
    H_direct = np.einsum("ndp,ndq->pq", J, J) / X.shape[0]
    assert rep.H == pytest.approx(0.5 * (H_direct + H_direct.T), abs=1e-12)
    assert np.array_equal(rep.H, rep.H.T)
    assert rep.lambda_min >= -1e-12
    assert rep.mu_slice == slice(0, 2) and rep.U_slice == slice(2, 4)
    assert rep.H_mumu.shape == (2, 2) and rep.H_muU.shape == (2, 2)
    assert rep.alpha_formula == pytest.approx(0.25)
    with pytest.raises(EmptyDataset):
        hessian_from_samples(p, None, unit_sched, 1.0, np.zeros((0, 2)))


def _free_rank_one(d, L):
    """Means 4 e_l with rank-one factors 0.5 (e_l + e_{l + d/2}), equal weights."""
    eye = np.eye(d)
    params = LatentParams(tuple(
        (4.0 * eye[l], 0.5 * (eye[l] + eye[(l + d // 2) % d])[:, None]) for l in range(L)))
    return params, np.full(L, 1.0 / L)


def test_hessian_matches_per_sample_oracle(unit_sched):
    """H against the mean of every sample's J^T J, with n spanning several
    row blocks and a multiple of none."""
    tied = SymmetricParams(mu=[2.0, 0.5], U=[[0.8], [0.1]])
    for (params, pis), n in (((tied, None), 10007), (_free_rank_one(3, 2), 2001)):
        d, p = params.d, params.dim
        assert n > BLOCK_ELEMENTS // (d * p)
        assert n % (BLOCK_ELEMENTS // (d * p)) and n % (BLOCK_ELEMENTS // (p * p))
        X = sample_noised(params, pis, unit_sched, 1.0, n, 37)
        rep = hessian_from_samples(params, pis, unit_sched, 1.0, X)
        J = exact_jacobian(params, pis, unit_sched, 1.0, X)
        M = np.einsum("ndp,ndq->npq", J, J)
        H = M.mean(axis=0)
        np.testing.assert_allclose(rep.H, 0.5 * (H + H.T), rtol=1e-10, atol=0)


def test_hessian_mean_block_closed_form_for_one_component(unit_sched):
    """With one component J_mu = s Sigma^{-1} at every x, so the mean block
    of H is s^2 Sigma^{-2} whatever the samples."""
    U = np.array([[0.7], [0.2]])
    params = LatentParams((([1.0, -0.5], U),))
    X = sample_noised(params, [1.0], unit_sched, 1.0, 20000, 3)
    rep = hessian_from_samples(params, [1.0], unit_sched, 1.0, X)
    s, _, gamma = coefficients(unit_sched, 1.0)
    Sinv = np.linalg.inv(s * s * U @ U.T + gamma * gamma * np.eye(2))
    np.testing.assert_allclose(rep.H_mumu, s * s * Sinv @ Sinv, rtol=1e-12, atol=0)


def test_hessian_memory_bounded(unit_sched):
    """No per-sample (n, p, p) stack: the traced peak stays far below the
    n p^2 doubles such a stack would take."""
    import tracemalloc

    tied = SymmetricParams(mu=[4.0, 0.0], U=[[1.0], [0.0]])
    for (params, pis), n, bound_mb in (
            (_free_rank_one(8, 4), 4096, 32), ((tied, None), 100_000, 8)):
        X = sample_noised(params, pis, unit_sched, 1.0, n, 5)
        tracemalloc.start()
        try:
            hessian_from_samples(params, pis, unit_sched, 1.0, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 2 ** 20, (params.dim, n, peak)


def test_kernel_factored_once_per_reduction(unit_sched, monkeypatch):
    """One Hessian and one overlap analysis over several row blocks each
    factor the mixture's kernel once, not once per block."""
    params, pis = _free_rank_one(4, 2)
    n = 3000
    assert n > 2 * (BLOCK_ELEMENTS // (params.d * params.dim))
    X = sample_noised(params, pis, unit_sched, 1.0, n, 31)
    calls = []

    def counted(*args):
        calls.append(args)
        return mixture_kernel(*args)

    monkeypatch.setattr(calculus, "mixture_kernel", counted)
    hessian_from_samples(params, pis, unit_sched, 1.0, X)
    assert len(calls) == 1
    overlap_analysis(params, pis, unit_sched, 1.0, X, mode="two_mode_sup")
    assert len(calls) == 2


def test_hessian_fd_mode_agrees_with_exact(unit_sched):
    """The Hessian of the exact Jacobian equals mean F^T F for F the FD Jacobian."""
    p = SymmetricParams(mu=[2.0, 0.5], U=[[0.8], [0.1]])
    X = sample_noised(p, None, unit_sched, 1.0, 40, 13)
    a = hessian_from_samples(p, None, unit_sched, 1.0, X)
    F = np.stack([jacobian_fd(p, None, unit_sched, 1.0, x).full for x in X])
    assert a.H == pytest.approx(np.einsum("ndp,ndq->pq", F, F) / X.shape[0], abs=1e-6)


def test_hessian_empirical_reproducible(unit_sched):
    p = SymmetricParams(mu=[3.0, 0.0], U=[[1.0], [0.0]])
    a = hessian_empirical(p, None, unit_sched, 1.0, 2000, 17)
    b = hessian_empirical(p, None, unit_sched, 1.0, 2000, 17)
    assert np.array_equal(a.H, b.H)


def test_overlap_analysis_two_mode(unit_sched):
    p = SymmetricParams(mu=[2.0, 0.0], U=[[1.0], [0.0]])
    X = sample_noised(p, None, unit_sched, 1.0, 4000, 19)
    rep = overlap_analysis(p, None, unit_sched, 1.0, X, mode="two_mode_sup")
    assert 0 <= rep.eps_overlap <= 0.25 + 1e-12
    # the pairwise overlap statistic matches a direct recomputation
    r = responsibilities(p, None, unit_sched, 1.0, X)
    assert rep.xi_max == pytest.approx(float(np.max(r[:, 0] * r[:, 1])), abs=1e-15)
    # Weyl: lambda_min(H) >= lambda_min(H_diag) - |Delta|
    assert rep.weyl_gap >= -1e-8
    assert rep.constants.S_mu == pytest.approx(1.0)  # s / gamma^2 at s = gamma = 1
    assert rep.alpha_eff == pytest.approx(
        rep.lambda_base - rep.constants.C * rep.eps_overlap)


def test_overlap_analysis_multi_mode_and_errors(unit_sched):
    params = LatentParams((
        ([3.0, 0.0], [[1.0], [0.0]]),
        ([-3.0, 0.0], [[1.0], [0.0]]),
        ([0.0, 3.0], [[0.0], [1.0]]),
    ))
    pis = np.array([0.4, 0.4, 0.2])
    X = sample_noised(params, pis, unit_sched, 1.0, 3000, 23)
    rep = overlap_analysis(params, pis, unit_sched, 1.0, X, mode="multi_mode_expect")
    assert rep.eps_total.shape == (3,)
    assert np.all(rep.eps_total >= 0)
    assert rep.weyl_gap >= -1e-8
    with pytest.raises(DimensionMismatch):
        overlap_analysis(params, pis, unit_sched, 1.0, X, mode="two_mode_sup")
    with pytest.raises(DimensionMismatch):
        overlap_analysis(params, pis, unit_sched, 1.0, X, mode="bogus")
    with pytest.raises(EmptyDataset):
        overlap_analysis(params, pis, unit_sched, 1.0, np.zeros((0, 2)))
    tied = SymmetricParams(mu=[2.0, 0.0], U=[[1.0], [0.0]])
    with pytest.raises(DimensionMismatch, match="free mixture"):
        overlap_analysis(tied, None, unit_sched, 1.0, X, mode="multi_mode_expect")


def test_overlap_analysis_matches_separate_reductions(unit_sched):
    """The one-pass overlap analysis gives the Hessian, the perturbation
    constants and the expected overlaps of the separate computations."""
    free = LatentParams((
        ([3.0, 0.0], [[1.0], [0.0]]),
        ([-3.0, 0.0], [[1.0], [0.0]]),
        ([0.0, 3.0], [[0.0], [1.0]]),
    ))
    cases = ((SymmetricParams(mu=[2.0, 0.0], U=[[1.0], [0.0]]), None, "two_mode_sup", 9000),
             (free, np.array([0.4, 0.4, 0.2]), "multi_mode_expect", 6000))
    for params, pis, mode, n in cases:
        X = sample_noised(params, pis, unit_sched, 1.0, n, 43)
        rep = overlap_analysis(params, pis, unit_sched, 1.0, X, mode=mode)
        hess = hessian_from_samples(params, pis, unit_sched, 1.0, X)
        np.testing.assert_allclose(rep.hessian.H, hess.H, rtol=1e-12, atol=0)
        # C1', C2': the largest |B_mu|_F / xi and |B_U|_F / xi from one
        # whole-batch pass, over points whose overlap xi is above XI_FLOOR
        r, _, B = jacobian_terms(params, pis, unit_sched, 1.0, X)
        first, second = np.triu_indices(r.shape[1], 1)
        xi = np.sum(r[:, first] * r[:, second], axis=1)
        keep = xi > XI_FLOOR
        n_mu = params.columns[0][1].start
        C1p, C2p = (np.max(np.linalg.norm(B[keep][:, :, sl], axis=(1, 2)) / xi[keep])
                    for sl in (slice(0, n_mu), slice(n_mu, params.dim)))
        s, _, gamma = coefficients(unit_sched, 1.0)
        R = float(np.max(np.linalg.norm(X, axis=1)))
        S_mu, S_U = s / gamma ** 2, s * R * R / gamma ** 2
        C = (2.0 * (S_mu + S_U) * (C1p + C2p) if isinstance(params, SymmetricParams)
             else 2.0 * (S_mu * C1p + S_U * C2p))
        want = {"S_mu": S_mu, "S_U": S_U, "C1p": C1p, "C2p": C2p, "C": C}
        for field, value in want.items():
            assert getattr(rep.constants, field) == pytest.approx(value, rel=1e-12)
    r = responsibilities(free, pis, unit_sched, 1.0, X)
    eps = [sum(np.mean(r[:, j] * r[:, l]) for j in range(3) if j != l) for l in range(3)]
    np.testing.assert_allclose(rep.eps_total, eps, rtol=1e-12, atol=0)


def test_perturbation_constants_scales(unit_sched):
    p = SymmetricParams(mu=[2.0, 0.0], U=[[1.0], [0.0]])
    X = sample_noised(p, None, unit_sched, 1.0, 500, 29)
    c = overlap_analysis(p, None, unit_sched, 1.0, X).constants
    R = float(np.max(np.linalg.norm(X, axis=1)))
    assert c.S_mu == pytest.approx(1.0)
    assert c.S_U == pytest.approx(R * R)  # s R^2 / gamma^2
    assert c.C == pytest.approx(2.0 * (c.S_mu + c.S_U) * (c.C1p + c.C2p))
    assert c.C1p >= 0 and c.C2p >= 0


def test_equivalent_gaussian_error_degenerate_and_generic(unit_sched):
    A = random_orthonormal(4, 2, 5)
    same = ([1.0, 0.0], [[0.5], [0.0]])
    sub_same = Subspace(components=(same, ([1.0, 0.0], [[0.5], [0.0]])), A=A, weights=[0.5, 0.5])
    eps, delta, err = equivalent_gaussian_error(sub_same, unit_sched, 0.25, probe_radius=1.0)
    assert eps == 0.0 and delta == 0.0
    assert err < 1e-10  # identical components: the mixture is Gaussian
    sub_diff = Subspace(components=(
        ([1.0, 0.0], [[0.5], [0.0]]),
        ([-1.0, 0.0], [[0.3], [0.1]]),
    ), A=A, weights=[0.5, 0.5])
    eps2, delta2, err2 = equivalent_gaussian_error(sub_diff, unit_sched, 0.25, probe_radius=1.0)
    assert delta2 == pytest.approx(2.0)
    assert err2 > err
    with pytest.raises(ValueError):
        only = Subspace(components=(([0.0, 0.0], [[1.0], [0.0]]),), A=A, weights=[1.0])
        equivalent_gaussian_error(only, unit_sched, 0.25, probe_radius=1.0)


def test_score_of_dispatch(unit_sched):
    p = SymmetricParams(mu=[1.0, 0.0], U=[[0.5], [0.0]])
    lat, pis = p.mixture(None)
    x = np.array([0.3, -0.2])
    assert score_of(p, None, unit_sched, 1.0, x) == pytest.approx(
        score_of(lat, pis, unit_sched, 1.0, x), abs=1e-14)


def _dense_frozen_score(params, pis, sched, t, x, r0):
    """sum_m r0_m (-Sigma_m^{-1} (x - s mu_m)) with the tied form expanded by
    hand and every Sigma_m dense."""
    s, _, gamma = coefficients(sched, t)
    if isinstance(params, SymmetricParams):
        comps = [(params.mu, params.U), (-params.mu, params.U)]
    else:
        comps = list(params.components)
    out = np.zeros_like(x)
    for rm, (mu, U) in zip(r0, comps):
        cov = s * s * U @ U.T + gamma * gamma * np.eye(x.size)
        out -= rm * np.linalg.solve(cov, x - s * mu)
    return out


def _dense_responsibilities(params, pis, sched, t, x):
    s, _, gamma = coefficients(sched, t)
    if isinstance(params, SymmetricParams):
        comps, pis = [(params.mu, params.U), (-params.mu, params.U)], [0.5, 0.5]
    else:
        comps = list(params.components)
    logj = np.array([np.log(w) + dense_gaussian_logpdf(
        x, s * mu, s * s * U @ U.T + gamma * gamma * np.eye(x.size))
        for w, (mu, U) in zip(pis, comps)])
    w = np.exp(logj - logj.max())
    return w / w.sum()


def test_self_cluster_term_matches_frozen_responsibility_fd(unit_sched, vp_sched):
    """Term A is the theta-derivative of the score with responsibilities
    frozen at theta_0: checked by central FD of a dense-covariance oracle for
    both parameterizations, factor ranks 0 and d, and both schedules."""
    rng = np.random.default_rng(5)
    h = 1e-5
    d = 3
    cases = [
        (SymmetricParams(mu=rng.standard_normal(d), U=np.zeros((d, 0))), None),
        (SymmetricParams(mu=rng.standard_normal(d), U=rng.standard_normal((d, d))), None),
        (LatentParams(((rng.standard_normal(d), np.zeros((d, 0))),
                       (rng.standard_normal(d), rng.standard_normal((d, d))),
                       (rng.standard_normal(d), rng.standard_normal((d, 1))))),
         np.array([0.3, 0.5, 0.2])),
    ]
    for sched in (unit_sched, vp_sched):
        for t in (0.3, 1.0):
            for params, pis in cases:
                x = rng.standard_normal(d)
                r0 = _dense_responsibilities(params, pis, sched, t, x)
                vec = params.flatten()
                cols = []
                for j in range(vec.size):
                    e = np.zeros_like(vec)
                    e[j] = h
                    sp = _dense_frozen_score(params.unflatten(vec + e), pis, sched, t, x, r0)
                    sm = _dense_frozen_score(params.unflatten(vec - e), pis, sched, t, x, r0)
                    cols.append((sp - sm) / (2.0 * h))
                fd = np.stack(cols, axis=-1)
                got = jacobian_terms(params, pis, sched, t, x)[1][0]
                assert got == pytest.approx(fd, abs=5e-7)


def test_point_layout_keeps_the_derivative_bits_and_the_points_unwritten(vp_sched):
    """The derivative pass reads a column-major batch's x^T in place and
    takes its own scratch: C-ordered and column-major read-only copies of the
    same points give the same Jacobian and contraction bits (a write into
    either raises), for the free mixture and the tied form."""
    rng = np.random.default_rng(27)
    d = 3
    cases = [(LatentParams(((rng.standard_normal(d), rng.standard_normal((d, 1))),
                            (rng.standard_normal(d), rng.standard_normal((d, 2))))),
              np.array([0.4, 0.6])),
             (SymmetricParams(mu=rng.standard_normal(d), U=rng.standard_normal((d, 1))), None)]
    X = 2.0 * rng.standard_normal((30, d))
    target = rng.standard_normal((30, d))
    layouts = read_only_layouts(X)
    for params, pis in cases:
        c, f = (exact_jacobian(params, pis, vp_sched, 0.4, a) for a in layouts)
        assert np.array_equal(c, f)
        (sq_c, g_c), (sq_f, g_f) = (residual_contraction(params, pis, vp_sched, 0.4, a, target)
                                    for a in layouts)
        assert sq_c == sq_f and np.array_equal(g_c, g_f)
