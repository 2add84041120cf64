import numpy as np
import pytest

from molrmog.errors import (
    DimensionMismatch,
    NonOrthonormalBasis,
    ValidationError,
    WeightsNotNormalized,
)
from molrmog.model import (
    MoGComponent,
    MoLRMoGModel,
    Subspace,
    build_model,
    component_weights,
    decode,
    encode,
    forward_noise,
    moment_match,
    random_orthonormal,
    sample_data,
    support_radius,
)


def two_subspace_model(D=5, seed=3):
    subs = []
    for k, d in enumerate((2, 3)):
        A = random_orthonormal(D, d, seed + k)
        comps = (
            MoGComponent(pi=0.4, mu=np.arange(1, d + 1, dtype=float), U=0.5 * np.eye(d)[:, :1]),
            MoGComponent(pi=0.6, mu=-np.ones(d), U=0.3 * np.eye(d)[:, :2] if d > 1 else 0.3 * np.eye(d)),
        )
        subs.append(Subspace(A=A, components=comps))
    return MoLRMoGModel(D=D, subspaces=tuple(subs))


def test_random_orthonormal_is_orthonormal_and_deterministic():
    A = random_orthonormal(7, 3, 11)
    B = random_orthonormal(7, 3, 11)
    assert np.array_equal(A, B)
    assert np.max(np.abs(A.T @ A - np.eye(3))) < 1e-12


def test_component_promotes_vector_factor():
    c = MoGComponent(pi=1.0, mu=[0.0, 0.0], U=[1.0, 2.0])
    assert c.U.shape == (2, 1)


def test_validation_errors():
    A = random_orthonormal(4, 2, 0)
    good = MoGComponent(pi=1.0, mu=[0.0, 0.0], U=[[1.0], [0.0]])
    with pytest.raises(NonOrthonormalBasis):
        Subspace(A=1.1 * A, components=(good,))
    with pytest.raises(WeightsNotNormalized):
        Subspace(A=A, components=(MoGComponent(pi=0.7, mu=[0.0, 0.0], U=[[1.0], [0.0]]),))
    with pytest.raises(DimensionMismatch):
        MoGComponent(pi=1.0, mu=[0.0, 0.0], U=np.eye(3))
    with pytest.raises(DimensionMismatch):
        MoGComponent(pi=1.0, mu=[0.0, 0.0], U=np.ones((2, 3)))
    with pytest.raises(ValidationError):
        MoGComponent(pi=0.0, mu=[0.0], U=[[1.0]])
    with pytest.raises(DimensionMismatch):
        MoLRMoGModel(D=5, subspaces=(Subspace(A=A, components=(good,)),))
    with pytest.raises(ValidationError):
        MoLRMoGModel(D=4, subspaces=())


def test_non_numeric_spec_rejected():
    A = random_orthonormal(4, 2, 0)
    good = MoGComponent(pi=1.0, mu=[0.0, 0.0], U=[[1.0], [0.0]])
    with pytest.raises(ValidationError):
        MoGComponent(pi=1.0, mu=[np.nan, 0.0], U=[[1.0], [0.0]])
    with pytest.raises(ValidationError):
        MoGComponent(pi=1.0, mu=[0.0, 0.0], U=[[[0.6]], [[0.1]]])
    with pytest.raises(ValidationError):
        Subspace(A=np.where(A == A[0, 0], np.nan, A), components=(good,))
    spec = {"D": 4, "subspaces": [{"d": 2, "A_seed": 7, "components": [
        {"pi": True, "mu": [2.0, 0.0], "U": [[0.6], [0.1]]}]}]}
    with pytest.raises(ValidationError):
        build_model(spec)


def test_build_model_matches_manual_construction():
    spec = {
        "D": 4,
        "subspaces": [
            {
                "d": 2,
                "A_seed": 7,
                "components": [
                    {"pi": 0.5, "mu": [2.0, 0.0], "U": [[0.6], [0.1]]},
                    {"pi": 0.5, "mu": [-2.0, 0.5], "U": [[0.2], [0.5]]},
                ],
            }
        ],
    }
    model = build_model(spec)
    assert model.K == 1
    assert np.array_equal(model.subspaces[0].A, random_orthonormal(4, 2, 7))
    ws = component_weights(model)
    assert [w for _, _, w in ws] == [0.5, 0.5]
    with pytest.raises(ValidationError):
        build_model({"subspaces": []})


def test_samples_lie_on_their_subspace():
    model = two_subspace_model()
    data = sample_data(model, 500, np.random.default_rng(0))
    for k, sub in enumerate(model.subspaces):
        rows = data.x[data.k == k]
        proj = rows @ sub.A @ sub.A.T
        assert np.max(np.abs(rows - proj)) < 1e-10


def test_label_frequencies_match_weights():
    model = two_subspace_model()
    n = 200000
    data = sample_data(model, n, np.random.default_rng(5))
    for k, l, w in component_weights(model):
        freq = np.mean((data.k == k) & (data.l == l))
        # 4-sigma binomial band
        assert abs(freq - w) < 4 * np.sqrt(w * (1 - w) / n)


def test_sample_data_determinism_and_validation():
    model = two_subspace_model()
    a = sample_data(model, 64, 123)
    b = sample_data(model, 64, 123)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.k, b.k)
    with pytest.raises(ValidationError):
        sample_data(model, 0, 1)


def test_forward_noise_moments(unit_sched):
    x0 = np.full((100000, 3), 2.0)
    xt = forward_noise(x0, unit_sched, 0.25, np.random.default_rng(2))
    # s = 1, gamma = 0.5 under the unit constant-drift schedule
    assert np.mean(xt) == pytest.approx(2.0, abs=0.01)
    assert np.std(xt) == pytest.approx(0.5, abs=0.01)


def test_encode_decode_roundtrip():
    model = two_subspace_model()
    sub = model.subspaces[1]
    z = np.random.default_rng(9).standard_normal((10, sub.d))
    assert encode(sub, decode(sub, z)) == pytest.approx(z)
    with pytest.raises(DimensionMismatch):
        encode(sub, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        decode(sub, np.zeros(7))


def test_moment_match_against_monte_carlo(unit_sched):
    model = two_subspace_model()
    sub = model.subspaces[0]
    t = 0.5
    eq = moment_match(sub, unit_sched, t)
    rng = np.random.default_rng(17)
    n = 400000
    labels = rng.choice(len(sub.components), size=n, p=sub.weights)
    z = np.empty((n, sub.d))
    for l, comp in enumerate(sub.components):
        rows = labels == l
        eps = rng.standard_normal((int(rows.sum()), comp.U.shape[1]))
        z[rows] = comp.mu + eps @ comp.U.T
    zt = z + np.sqrt(t) * rng.standard_normal(z.shape)
    assert eq.mu_bar == pytest.approx(zt.mean(axis=0), abs=0.02)
    assert eq.sigma_bar == pytest.approx(np.cov(zt.T), abs=0.05)
    # covariance is symmetric PSD
    assert np.min(np.linalg.eigvalsh(eq.sigma_bar)) > 0


def test_support_radius_covers_requested_mass():
    model = two_subspace_model()
    R = support_radius(model, 0.99)
    data = sample_data(model, 50000, np.random.default_rng(1))
    frac = np.mean(np.linalg.norm(data.x, axis=1) <= R)
    assert frac >= 0.99
    with pytest.raises(ValidationError):
        support_radius(model, 1.0)


SUPPORT_MASSES = (0.5, 0.9, 0.99, 0.999999)


def test_chi2_quantile_identity_matches_scipy_stats():
    """support_radius's 2 gammaincinv(df/2, mass) is chi2.ppf(mass, df) exactly."""
    from scipy import stats
    from scipy.special import gammaincinv

    for df in (1, 2, 3, 4):
        for mass in SUPPORT_MASSES:
            assert 2.0 * gammaincinv(df / 2, mass) == stats.chi2.ppf(mass, df)


@pytest.mark.parametrize("rank", [1, 2])
def test_support_radius_matches_chi2_ppf_formula(rank):
    from scipy import stats

    def oracle(model, mass):
        R = 0.0
        for sub in model.subspaces:
            for comp in sub.components:
                smax = np.linalg.svd(comp.U, compute_uv=False)[0]
                z = np.ceil(np.sqrt(stats.chi2.ppf(mass, comp.U.shape[1])))
                R = max(R, float(np.linalg.norm(sub.A @ comp.mu)) + z * smax)
        return R

    d = 3
    comps = (
        MoGComponent(pi=0.3, mu=np.array([1.0, -2.0, 0.5]), U=0.7 * np.eye(d)[:, :rank]),
        MoGComponent(pi=0.7, mu=np.array([-0.5, 0.0, 1.5]),
                     U=np.linspace(0.2, 1.1, d * rank).reshape(d, rank)),
    )
    model = MoLRMoGModel(D=5, subspaces=(Subspace(A=random_orthonormal(5, d, 9), components=comps),))
    for mass in SUPPORT_MASSES:
        assert support_radius(model, mass) == oracle(model, mass)
