"""Walk through the exact score machinery on a small two-mode model.

Everything here is closed form: the noised mixture density, its score, and
the parameter-Jacobian of the score, each cross-checked against central
finite differences on the spot.
"""

import numpy as np

from molrmog.schedule import make_schedule
from molrmog.calculus import exact_jacobian, jacobian_fd, jacobian_terms
from molrmog.score import SymmetricParams, latent_score, responsibilities

sched = make_schedule("constant_drift", 1.0, 0.01, 1.0)
t = 1.0  # s = 1, gamma = 1 here
p = SymmetricParams(mu=[3.0, 0.0], U=[[0.9], [0.2]])

print("tied two-mode model: modes at +/-", p.mu, "shared factor", p.U.ravel())

# the score at the midpoint vanishes by symmetry
x0 = np.zeros(2)
print("score at the midpoint:", latent_score(p, None, sched, t, x0))
print("responsibilities there:", responsibilities(p, None, sched, t, x0))

# near one mode the other mode barely matters
x = np.array([3.5, 0.1])
r = responsibilities(p, None, sched, t, x)
print("\nnear the + mode, r+ =", r[0], " r- =", r[1])

# the exact parameter-Jacobian splits into a frozen-responsibility part
# (term A) and an overlap-driven part (term B proportional to r+ r-)
termA, termB = jacobian_terms(p, None, sched, t, x)[1:]
print("|termA| =", np.linalg.norm(termA), " |termB| =", np.linalg.norm(termB))

fd = jacobian_fd(p, None, sched, t, x).full
exact = exact_jacobian(p, None, sched, t, x)[0]
print("max |exact - FD| =", np.max(np.abs(exact - fd)))

# push the modes apart and watch term B die exponentially
print("\ngap (in noise units) vs |termB|/|termA| one noise unit off the + mode:")
for gap in (2.0, 4.0, 8.0, 16.0):
    mu = np.array([gap / 2.0, 0.0])
    xq = mu + np.array([1.0, 0.0])
    a, b = jacobian_terms(SymmetricParams(mu=mu, U=p.U), None, sched, t, xq)[1:]
    print(f"  {gap:4.0f}  {np.linalg.norm(b) / np.linalg.norm(a):.3e}")
