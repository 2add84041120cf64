"""Ground-truth mixture-of-low-rank-MoG model: construction, sampling, noising.

The data distribution is a union of K linear subspaces mixed with equal
weight 1/K.  Subspace k carries an orthonormal basis A_k (D x d_k) and an
n_k-component Gaussian mixture in latent coordinates; component l has weight
pi_l, mean mu_l, and covariance U_l U_l^T (possibly rank deficient).  A
noiseless sample is x = A_k (mu_l + U_l z) with z standard normal, so the
data lies exactly on its subspace.  Full-rank noise enters only through the
forward process at t > 0.

A `Subspace` is a `score.LatentParams`, the type of a trained theta, so it is
its own truth theta*.  It adds only the checks a model needs (orthonormal A,
finite entries, r <= d, weights), which a diverging GD iterate must not fail.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonOrthonormalBasis,
    ValidationError,
    WeightsNotNormalized,
)
from .schedule import DiffusionSchedule, coefficients
from .score import FactoredMixture, LatentParams

ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class Subspace(LatentParams):
    """One subspace: the latent mixture (mu_l, U_l), the orthonormal basis A
    (D x d) and the weights pi_l."""

    A: np.ndarray  # (D, d), orthonormal columns
    weights: np.ndarray  # (L,), positive, summing to 1

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.A.ndim != 2:
            raise DimensionMismatch(f"basis A must be a matrix, got {self.A.ndim}-D")
        d = self.A.shape[1]
        gram = self.A.T @ self.A
        # written so that a NaN deviation fails it too
        if not np.max(np.abs(gram - np.eye(d)), initial=0.0) <= ORTHO_TOL:
            raise NonOrthonormalBasis("A^T A deviates from identity beyond 1e-10")
        if self.d != d:
            raise DimensionMismatch("component dimension differs from subspace dimension")
        for mu, U in self.components:
            if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(U))):
                raise ValidationError("component mean and factor must be finite")
            if U.shape[1] > d:
                raise DimensionMismatch(f"U rank {U.shape[1]} exceeds latent dim {d}")
        if self.weights.shape != (len(self.components),):
            raise DimensionMismatch(f"need one weight per component, got {self.weights.shape}")
        if not np.all(self.weights > 0):
            raise ValidationError(f"weights must be positive, got {self.weights.tolist()}")
        total = float(sum(self.weights))
        if abs(total - 1.0) > 1e-9:
            raise WeightsNotNormalized(f"component weights sum to {total}")


@dataclass(frozen=True)
class MoLRMoGModel:
    D: int
    subspaces: tuple[Subspace, ...]

    def __post_init__(self):
        object.__setattr__(self, "subspaces", tuple(self.subspaces))
        if len(self.subspaces) < 1:
            raise ValidationError("model needs at least one subspace")
        for sub in self.subspaces:
            if sub.A.shape[0] != self.D:
                raise DimensionMismatch("subspace basis row count differs from ambient dimension")

    @property
    def K(self) -> int:
        return len(self.subspaces)

    @functools.cached_property
    def ambient_mixture(self) -> FactoredMixture:
        """The flat (k, l) components of the ambient mixture in
        `component_weights` order, means A mu, low-rank factors A U and
        weights pi_l / K, factored for every t (`score.FactoredMixture`) on
        the first read and kept, read-only, since every caller shares it: the
        reverse sampler rescales it at every step."""
        means, factors = [], []
        for sub in self.subspaces:
            for mu, U in sub.components:
                means.append(sub.A @ mu)
                factors.append(sub.A @ U)
        weights = np.concatenate([sub.weights for sub in self.subspaces]) / self.K
        return FactoredMixture(means, factors, weights)


@dataclass
class LabeledDataset:
    """Column-oriented store of labeled draws; vector friendly at large n."""

    k: np.ndarray  # (n,) subspace labels
    l: np.ndarray  # (n,) component labels
    x: np.ndarray  # (n, D) ambient points


@dataclass(frozen=True)
class EquivalentGaussian:
    mu_bar: np.ndarray  # (d,)
    sigma_bar: np.ndarray  # (d, d) symmetric PSD


def random_orthonormal(D: int, d: int, seed: int) -> np.ndarray:
    """Orthonormalize a seeded Gaussian matrix; sign-fixed for determinism."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((D, d))
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diag(R))


def as_numbers(value, integer: bool = False) -> np.ndarray:
    """A JSON number or nested list of numbers as a float array, or an int
    array with integer=True.  TypeError for a boolean, string, null or object
    anywhere in it (Python reads a JSON true as 1, numpy reads "1" as 1.0);
    ValueError for a non-finite entry or, with integer=True, a fraction."""
    leaves = [value]
    while leaves:
        leaf = leaves.pop()
        if isinstance(leaf, list):
            leaves.extend(leaf)
        elif leaf is None or isinstance(leaf, (bool, str, dict)):
            raise TypeError(f"{leaf!r} is not a number")
    out = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"non-finite entry in {value!r}")
    if integer:
        if np.any(out != np.trunc(out)):
            raise ValueError(f"{value!r} is not an integer")
        return np.asarray(value, dtype=np.int64)
    return out


def build_model(spec: dict) -> MoLRMoGModel:
    """Build a model from a plain-dict description (the JSON config shape).

    spec = {"D": int, "subspaces": [{"d": int, "A_seed": int | "A": [[..]],
            "components": [{"pi": num, "mu": [..], "U": [[..]]}]}]}
    A subspace gives either A_seed or A, and a d beside A must be its column
    count.  Every number is read by `as_numbers`; int() and float() of what
    it returns refuse a list where one number belongs.
    """
    try:
        D = int(as_numbers(spec["D"], integer=True))
        sub_specs = list(spec["subspaces"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"model spec missing or malformed field: {exc}") from exc
    subspaces = []
    for i, ss in enumerate(sub_specs):
        try:
            comps = [(as_numbers(c["mu"]), as_numbers(c["U"])) for c in ss["components"]]
            weights = [float(as_numbers(c["pi"])) for c in ss["components"]]
            if "A" in ss:
                A = as_numbers(ss["A"])
                if "A_seed" in ss:
                    raise ValueError("give either A or A_seed, not both")
                if "d" in ss and A.shape[1:] != (int(as_numbers(ss["d"], integer=True)),):
                    raise ValueError(f"d = {ss['d']!r} but A has shape {A.shape}")
            else:
                d = int(as_numbers(ss["d"], integer=True))
                if d > D:  # a reduced QR would quietly return d = D columns
                    raise ValueError(f"d = {d} exceeds D = {D}")
                A = random_orthonormal(D, d, int(as_numbers(ss["A_seed"], integer=True)))
        except KeyError as exc:
            raise ValidationError(f"model subspace {i} is missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            msg = " ".join(str(exc).split())
            raise ValidationError(f"model subspace {i} is malformed: {msg}") from exc
        subspaces.append(Subspace(components=comps, A=A, weights=weights))
    return MoLRMoGModel(D=D, subspaces=tuple(subspaces))


def component_weights(model: MoLRMoGModel) -> list[tuple[int, int, float]]:
    """Flat (k, l, weight) list with weights (1/K) * pi summing to 1."""
    K = model.K
    out = []
    for k, sub in enumerate(model.subspaces):
        for l, pi in enumerate(sub.weights.tolist()):
            out.append((k, l, pi / K))
    return out


def sample_data(model: MoLRMoGModel, n: int, rng) -> LabeledDataset:
    """Draw n labeled noiseless samples; component chosen with prob (1/K) pi."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(rng)
    flat = component_weights(model)
    probs = np.array([w for _, _, w in flat])
    idx = rng.choice(len(flat), size=n, p=probs)
    k_lab, l_lab = np.array([(k, l) for k, l, _ in flat], dtype=int)[idx].T
    x = np.empty((n, model.D))
    # one block of normal draws per component, in fixed component order
    for ci, (k, l, _) in enumerate(flat):
        rows = np.nonzero(idx == ci)[0]
        sub = model.subspaces[k]
        comp = sub.components[l]
        z = rng.standard_normal((len(rows), comp.U.shape[1]))
        latent = comp.mu + z @ comp.U.T
        x[rows] = latent @ sub.A.T
    return LabeledDataset(k=k_lab, l=l_lab, x=x)


def forward_noise(x0: np.ndarray, sched: DiffusionSchedule, t: float, rng) -> np.ndarray:
    """Push x0 through the forward process: s(t) x0 + gamma(t) z."""
    s, _, gamma = coefficients(sched, t)  # raises TimeOutOfRange
    x0 = np.asarray(x0, dtype=float)
    rng = np.random.default_rng(rng)
    return s * x0 + gamma * rng.standard_normal(x0.shape)


def encode(sub: Subspace, x: np.ndarray) -> np.ndarray:
    """Project ambient points onto latent coordinates: A^T x."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != sub.A.shape[0]:
        raise DimensionMismatch(f"expected ambient length {sub.A.shape[0]}, got {x.shape[-1]}")
    return x @ sub.A


def mixture_moments(means, factors, weights, s: float, gamma: float) -> EquivalentGaussian:
    """First two moments of the noised mixture sum_l w_l N(s m_l, s^2 W_l W_l^T
    + gamma^2 I), in whichever coordinates the means m_l and factors W_l are."""
    D = len(means[0])
    mean = np.zeros(D)
    cov = np.zeros((D, D))
    for m, W, w in zip(means, factors, weights):
        m = s * m
        mean += w * m
        cov += w * ((s * s) * W @ W.T + (gamma * gamma) * np.eye(D) + np.outer(m, m))
    cov -= np.outer(mean, mean)
    return EquivalentGaussian(mu_bar=mean, sigma_bar=cov)
