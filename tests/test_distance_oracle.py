"""``distance_to_multiple`` against independent oracles, for n = 1 and for
matrices.

**Scalar polynomials.** For p(x) = sum_j p_j x^j and weights w_j > 0, the
distance to the nearest polynomial with a double root is

    d = min over mu of t(mu),

where t(mu) is the smallest t such that some delta with |delta_j| <= t w_j
makes mu a double root of p + delta: sum_j delta_j mu^j = -p(mu) and
sum_j j delta_j mu^(j-1) = -p'(mu).  Write a_j = (mu^j, j mu^(j-1)) and
b = -(p(mu), p'(mu)).  By duality,

    t(mu) = max over y != 0 of |y . b| / sum_j w_j |a_j . y|.

The ratio is homogeneous, so take y . b = 1: y = y0 + z v with
y0 = conj(b) / |b|^2 and v = (b_2, -b_1), and t(mu) = 1 / min over z of
sum_j w_j |c_j + z e_j| (c_j = a_j . y0, e_j = a_j . v), a weighted
Fermat-Weber problem in the plane.  Its minimum is at one of the anchors
-c_j / e_j or at the limit of Weiszfeld's iteration, all computed for many
mu at once.

The oracle samples t on a grid over the roots' box and polishes its best
nodes by SLSQP on the primal form: p + delta = (x - mu)^2 q, minimize t
subject to |delta_j| <= t w_j over (mu, q, t).  The dual t at the polished
mu must meet the primal t there, which certifies the inner minimum; d is
the smallest dual value at the polished points.  A polish that diverges
leaves a point where the dual is not finite, and is passed over.

The merge level r of ``distance_to_multiple`` is certified by a
perturbation in the r-ball, so d <= r.  Along p + s delta, s in [0, 1],
the two roots that collide at the nearest mu come from two distinct roots
of p and stay inside the level-d set (while the leading coefficient stays
nonzero), so their components have met by level d, and r <= d.  The test asserts r = d.

**Matrices.** For P(lambda) = lambda I - A with the weight w = 1 on P_0
alone, only A is perturbed, and the level sets are the 2-norm
pseudospectra of A.  Their first merge level is the 2-norm distance from A
to the nearest matrix with a multiple eigenvalue (Alam and Bora, LAA
2005), which Malyshev's formula (Numer. Math. 1999) gives independently:

    d = min over mu of max over gamma >= 0 of s_{2n-1}(M(mu, gamma)),
    M(mu, gamma) = [[A - mu I, gamma I], [0, A - mu I]],

s_{2n-1} being the second smallest of the 2n singular values.  The oracle
takes the inner maximum over gamma in [0, 2 ||A - mu I||] on a grid, in one
batched SVD over a grid of mu, and polishes it by a bounded scalar search;
the outer minimum is polished by Nelder-Mead from the best mu nodes.  The
test asserts r = d.

Both oracles use numpy and scipy only.
"""

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from polyspectra import MatrixPolynomial, PolyspectraError, WeightPolynomial, distance_to_multiple

WEISZFELD_STEPS = 400
POLISHED_STARTS = 6
# the matrix oracle's grids: mu nodes per axis and gamma values per mu
MU_NODES = 31
GAMMAS = 31
MATRIX_STARTS = 3


def dual_level(p, w, mu):
    """t(mu) at every point of ``mu``, from the dual's Fermat-Weber form."""
    mu = np.asarray(mu, dtype=complex)[:, None]
    j = np.arange(len(p))
    powers = mu**j
    slopes = j * mu ** np.maximum(j - 1, 0)
    b1, b2 = -(powers @ p), -(slopes @ p)
    norm = np.abs(b1) ** 2 + np.abs(b2) ** 2
    c = (powers * np.conj(b1)[:, None] + slopes * np.conj(b2)[:, None]) / norm[:, None]
    e = powers * b2[:, None] - slopes * b1[:, None]

    def g(z):
        return np.sum(w * np.abs(c + z[:, None] * e), axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        anchors = np.nan_to_num(-c / e)
    z = np.zeros(len(c), dtype=complex)
    for _ in range(WEISZFELD_STEPS):
        r = np.maximum(np.abs(c + z[:, None] * e), 1e-300)
        z = -np.sum(w * np.conj(e) * c / r, axis=1) / np.sum(w * np.abs(e) ** 2 / r, axis=1)
    smallest = np.min([g(z), *(g(a) for a in anchors.T)], axis=0)
    return 1.0 / smallest


def primal_polish(p, w, mu0):
    """(mu, t) of SLSQP on p + delta = (x - mu)^2 q from mu0."""
    m = len(p) - 1

    def delta(x):
        mu, q = x[0] + 1j * x[1], x[2 : m + 1] + 1j * x[m + 1 : 2 * m]
        # coefficients of (x - mu)^2 q, lowest first
        return np.convolve([mu * mu, -2 * mu, 1], q) - p

    # q0 fits p with the double root at mu0 in least squares
    square = [np.convolve([mu0 * mu0, -2 * mu0, 1], unit) for unit in np.eye(m - 1)]
    q0 = np.linalg.lstsq(np.transpose(square), p, rcond=None)[0]
    x0 = np.r_[mu0.real, mu0.imag, q0.real, q0.imag, 0.0]
    x0[-1] = np.max(np.abs(delta(x0)) / w)
    inside = {"type": "ineq", "fun": lambda x: (x[-1] * w) ** 2 - np.abs(delta(x)) ** 2}
    res = minimize(
        lambda x: x[-1],
        x0,
        jac=lambda x: np.eye(len(x))[-1],
        constraints=[inside],
        method="SLSQP",
        options={"ftol": 1e-15, "maxiter": 500},
    )
    return res.x[0] + 1j * res.x[1], res.x[-1]


def oracle_distance(p, w):
    """d = min over mu of t(mu): the dual on a 41 x 41 grid over the roots'
    box, its best nodes polished in the primal, and the smallest dual value
    at the polished points checked against the primal one."""
    roots = np.roots(p[::-1])
    pad = 0.5 * max(np.ptp(roots.real), np.ptp(roots.imag), 1.0)
    xs = np.linspace(roots.real.min() - pad, roots.real.max() + pad, 41)
    ys = np.linspace(roots.imag.min() - pad, roots.imag.max() + pad, 41)
    nodes = (xs[None, :] + 1j * ys[:, None]).ravel()
    starts = nodes[np.argsort(dual_level(p, w, nodes))[:POLISHED_STARTS]]
    mu, t = np.array([primal_polish(p, w, mu0) for mu0 in starts]).T
    dual = dual_level(p, w, mu)
    k = np.nanargmin(dual)
    assert abs(dual[k] - t[k].real) <= 1e-8 * dual[k], (mu[k], dual[k], t[k])
    return dual[k]


def test_scalar_merge_level_is_the_distance():
    rng = np.random.default_rng(29)
    returned = 0
    for _ in range(14):
        m = int(rng.integers(2, 4))
        p = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        w = np.ones(m + 1) if rng.uniform() < 0.5 else np.array([1.0, 0.5, 0.2, 0.1])[: m + 1]
        d = oracle_distance(p, w)
        try:
            res = distance_to_multiple(
                MatrixPolynomial(list(p)), WeightPolynomial(w), eps_max=10.0, nx=101, ny=101
            )
        except PolyspectraError:
            continue
        returned += 1
        assert abs(res.r - d) <= 1e-6 * res.r, (p, w, res.r, d)
    assert 3 * returned >= 2 * 14


def second_smallest(A, mu, gamma):
    """s_{2n-1}(M(mu, gamma)) for mu of any shape and gamma of that shape
    plus one axis, in one batched SVD."""
    n = len(A)
    B = A - mu[..., None, None] * np.eye(n)
    M = np.zeros(gamma.shape + (2 * n, 2 * n), dtype=complex)
    M[..., :n, :n] = M[..., n:, n:] = B[..., None, :, :]
    M[..., :n, n:] = gamma[..., None, None] * np.eye(n)
    return np.linalg.svd(M, compute_uv=False)[..., 2 * n - 2]


def gamma_grid(A, mu):
    """s_{2n-1} over ``GAMMAS`` values of gamma in [0, 2 ||A - mu I||] for
    every mu, and those values."""
    top = 2.0 * np.linalg.norm(A - mu[..., None, None] * np.eye(len(A)), 2, axis=(-2, -1))
    gamma = top[..., None] * np.linspace(0.0, 1.0, GAMMAS)
    return second_smallest(A, mu, gamma), gamma


def inner_max(A, mu):
    """max over gamma >= 0 of s_{2n-1}(M(mu, gamma)): the grid's best,
    polished by a bounded scalar search between its neighbours."""
    mu = np.array([mu])
    (s,), (gamma,) = gamma_grid(A, mu)
    k = int(np.argmax(s))
    assert k < GAMMAS - 1, "the maximum lies at the end of the gamma range"
    res = minimize_scalar(
        lambda g: -second_smallest(A, mu, np.array([[g]]))[0, 0],
        bounds=(gamma[max(k - 1, 0)], gamma[k + 1]),
        method="bounded",
        options={"xatol": 1e-10 * gamma[-1]},
    )
    return max(-res.fun, s[k])


def matrix_oracle_distance(A):
    """d = min over mu of ``inner_max``: a grid over the eigenvalues' box,
    its best nodes polished by Nelder-Mead."""
    eigs = np.linalg.eigvals(A)
    pad = 0.5 * max(np.ptp(eigs.real), np.ptp(eigs.imag), 1e-3)
    xs = np.linspace(eigs.real.min() - pad, eigs.real.max() + pad, MU_NODES)
    ys = np.linspace(eigs.imag.min() - pad, eigs.imag.max() + pad, MU_NODES)
    nodes = xs[:, None] + 1j * ys[None, :]
    coarse = gamma_grid(A, nodes)[0].max(axis=-1).ravel()
    step = xs[1] - xs[0]
    d = np.inf
    for mu0 in nodes.ravel()[np.argsort(coarse)[:MATRIX_STARTS]]:
        x0 = np.array([mu0.real, mu0.imag])
        res = minimize(
            lambda x: inner_max(A, complex(x[0], x[1])),
            x0,
            method="Nelder-Mead",
            options={
                "initial_simplex": [x0, x0 + (step, 0.0), x0 + (0.0, step)],
                "xatol": 1e-6 * step,
                "fatol": 1e-13 * coarse.min(),
            },
        )
        d = min(d, res.fun)
    return d


def test_matrix_merge_level_is_the_distance():
    rng = np.random.default_rng(30)
    for _ in range(8):
        n = int(rng.integers(2, 4))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        d = matrix_oracle_distance(A)
        res = distance_to_multiple(
            MatrixPolynomial([-A, np.eye(n)]),
            WeightPolynomial([1.0]),
            eps_max=2.0 * np.linalg.norm(A, 2),
            nx=101,
            ny=101,
        )
        assert abs(res.r - d) <= 1e-6 * res.r, (A, res.r, d)
