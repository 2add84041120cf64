from pathlib import Path

import numpy as np
import pytest

from molrmog.schedule import make_schedule


@pytest.fixture
def unit_sched():
    """Constant-drift schedule with s(t) = 1, gamma(t) = sqrt(t); at t = 1
    the noised coefficients are s = gamma = 1."""
    return make_schedule("constant_drift", 1.0, 0.01, 1.0)


@pytest.fixture
def vp_sched():
    return make_schedule("vp", 2.0, 0.01, 1.0)


def dense_gaussian_logpdf(x, mean, cov):
    """Brute-force Gaussian log-density via dense Cholesky (test oracle)."""
    x = np.atleast_2d(x)
    d = x.shape[1]
    cf = np.linalg.cholesky(cov)
    y = np.linalg.solve(cf, (x - mean).T).T
    out = -0.5 * (d * np.log(2 * np.pi) + 2 * np.sum(np.log(np.diag(cf)))
                  + np.sum(y * y, axis=1))
    return out if out.size > 1 else float(out[0])


def read_only_layouts(X):
    """Read-only C-ordered and column-major copies of X."""
    out = []
    for order in "CF":
        a = np.array(X, order=order)
        a.flags.writeable = False
        out.append(a)
    return out


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function on R^d."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def readme_tour() -> str:
    """The README's library tour, its first python code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("```python\n", 1)[1].split("```", 1)[0]
