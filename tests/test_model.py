import numpy as np
import pytest

from molrmog.errors import (
    DimensionMismatch,
    NonOrthonormalBasis,
    ValidationError,
    WeightsNotNormalized,
)
from molrmog.model import (
    MoLRMoGModel,
    Subspace,
    build_model,
    component_weights,
    encode,
    forward_noise,
    mixture_moments,
    random_orthonormal,
    sample_data,
)
from molrmog.schedule import coefficients
from molrmog.score import FactoredMixture, LatentParams


def two_subspace_model(D=5, seed=3):
    subs = []
    for k, d in enumerate((2, 3)):
        A = random_orthonormal(D, d, seed + k)
        comps = (
            (np.arange(1, d + 1, dtype=float), 0.5 * np.eye(d)[:, :1]),
            (-np.ones(d), 0.3 * np.eye(d)[:, :2] if d > 1 else 0.3 * np.eye(d)),
        )
        subs.append(Subspace(components=comps, A=A, weights=[0.4, 0.6]))
    return MoLRMoGModel(D=D, subspaces=tuple(subs))


def test_random_orthonormal_is_orthonormal_and_deterministic():
    A = random_orthonormal(7, 3, 11)
    B = random_orthonormal(7, 3, 11)
    assert np.array_equal(A, B)
    assert np.max(np.abs(A.T @ A - np.eye(3))) < 1e-12


def test_component_promotes_vector_factor():
    sub = Subspace(components=(([0.0, 0.0], [1.0, 2.0]),), A=random_orthonormal(4, 2, 0),
                   weights=[1.0])
    assert sub.components[0].U.shape == (2, 1)


def test_validation_errors():
    A = random_orthonormal(4, 2, 0)
    good = ([0.0, 0.0], [[1.0], [0.0]])
    with pytest.raises(NonOrthonormalBasis):
        Subspace(components=(good,), A=1.1 * A, weights=[1.0])
    with pytest.raises(WeightsNotNormalized):
        Subspace(components=(good,), A=A, weights=[0.7])
    with pytest.raises(DimensionMismatch):
        Subspace(components=(([0.0, 0.0], np.eye(3)),), A=A, weights=[1.0])
    with pytest.raises(DimensionMismatch):
        Subspace(components=(([0.0, 0.0], np.ones((2, 3))),), A=A, weights=[1.0])
    with pytest.raises(ValidationError):
        Subspace(components=(([0.0], [[1.0]]),), A=random_orthonormal(4, 1, 0), weights=[0.0])
    with pytest.raises(DimensionMismatch):
        MoLRMoGModel(D=5, subspaces=(Subspace(components=(good,), A=A, weights=[1.0]),))
    with pytest.raises(ValidationError):
        MoLRMoGModel(D=4, subspaces=())
    with pytest.raises(DimensionMismatch):
        Subspace(components=(good, good), A=A, weights=[1.0])


def test_non_numeric_spec_rejected():
    A = random_orthonormal(4, 2, 0)
    good = ([0.0, 0.0], [[1.0], [0.0]])
    with pytest.raises(ValidationError):
        Subspace(components=(([np.nan, 0.0], [[1.0], [0.0]]),), A=A, weights=[1.0])
    with pytest.raises(ValidationError):
        Subspace(components=(([0.0, 0.0], [[[0.6]], [[0.1]]]),), A=A, weights=[1.0])
    with pytest.raises(ValidationError):
        Subspace(components=(good,), A=np.where(A == A[0, 0], np.nan, A), weights=[1.0])
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
    # a subspace is its own latent parameters, read as pairs or by field
    sub = model.subspaces[0]
    assert isinstance(sub, LatentParams) and sub.d == 2
    assert np.array_equal(sub.weights, [0.5, 0.5])
    (mu, _), second = sub.components
    assert np.array_equal(mu, [2.0, 0.0]) and np.array_equal(second.U, [[0.2], [0.5]])
    # a trained iterate skips the model checks: it is plain latent parameters
    assert type(sub.unflatten(sub.flatten())) is LatentParams
    # the ambient mixture is factored once, read-only, in component order:
    # one object on every read, and no array of it can be written
    mix = model.ambient_mixture
    assert isinstance(mix, FactoredMixture)
    assert all(model.ambient_mixture is mix for _ in range(3))
    assert np.array_equal(mix.means[0, 1], sub.A @ second.mu)
    assert np.array_equal(mix.factors[0][0], sub.A @ sub.components[0].U)
    assert np.array_equal(mix.weights, [0.5, 0.5])
    arrays = [a for a in vars(mix).values() if isinstance(a, np.ndarray)] + list(mix.factors)
    assert len(arrays) == 9 and not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        mix.gram[0, 0, 0] = 1.0
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
    assert encode(sub, z @ sub.A.T) == pytest.approx(z)
    with pytest.raises(DimensionMismatch):
        encode(sub, np.zeros(3))


def test_moment_match_against_monte_carlo(unit_sched):
    model = two_subspace_model()
    sub = model.subspaces[0]
    t = 0.5
    s, _, gamma = coefficients(unit_sched, t)
    eq = mixture_moments([c.mu for c in sub.components], [c.U for c in sub.components],
                         sub.weights, s, gamma)
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
