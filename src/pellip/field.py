"""Grid calculus for divergence-form operators with complex coefficients.

Uniform periodic or Dirichlet grids in one and two dimensions, centered
finite differences, dense discretized operators -div(A grad), their
semigroups e^{-tL} in one unitary basis per operator (from one Hermitian
eigh, diagonal when L is normal), the L^p dissipativity functional and
its polar-coordinate decomposition, and the heat-flow energy experiment.

Periodic grids enjoy exact summation by parts, so the structural
identities (adjoint consistency, vanishing of divergence-free
antisymmetric pairings) hold to machine precision there; everything
tied to the chain rule carries an O(h^2) discretization error that the
refinement utilities quantify.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import scipy.linalg
import scipy.sparse

from . import ParameterError
from . import bellman as _bellman
from . import ellipticity as _ellipticity
from .realform import realify

__all__ = [
    "Grid",
    "GridFunction",
    "MatrixField",
    "OperatorMatrix",
    "sample",
    "gradient",
    "integrate",
    "lp_norm",
    "constant_field",
    "two_value_field",
    "section7_field",
    "mollify",
    "dissipativity_functional",
    "dissipativity_from_polar",
    "random_polar_probe",
    "identity_checks",
    "refinement_study",
    "default_identity_case",
    "counterexample_section7",
    "discretize_operator",
    "semigroup_apply",
    "heat_flow_experiment",
    "contractivity_probe",
]

MAX_CELLS = 2 ** 18  # 512^2; Grid checks it before any array is built
# default_identity_case lives on [-3, 3]^2, one period of its data.
_IDENTITY_EXTENT = 3.0
# refinement_study treats residuals below this as rounding: identity
# (ii) of identity_checks is exact and reads ~2e-17 on every grid.
_RESIDUAL_FLOOR = 1e-12
# refinement_study's grids: two doublings, so two empirical orders.
_REFINEMENT_CELLS = (64, 128, 256)
# heat_flow_experiment samples t = 0 and 40 geometric steps from 1e-3 to
# 50, and integrates the bilinear integrand by the trapezoid rule on them.
_HEAT_TIMES = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 40)])
# Slack of its monotonicity and budget checks, for the rounding of the
# factored semigroup: at most 5.6e-13 ||f|| from an exact eigh reference
# over the heat times on 1-D constant operators at 64-192 cells.
_HEAT_TOL = 1e-9
# OperatorMatrix takes L = H + iK (H, K Hermitian) as normal, and its
# semigroup as diagonal, when D = Q^H L Q, Q the eigenvectors of
# C = H + _SKEW_WEIGHT K, holds at most this share of ||L||_F off its
# diagonal; dropping that part perturbs L by at most this share of its
# norm.  For a normal L, eigh returns exact eigenvectors of C + E with
# ||E|| of order N u ||C|| (u = 1.1e-16), which leave an off-diagonal part
# of that size, larger where eigenvalues of C nearly meet.  Measured: at
# most 2.0e-15 on 1-D constant operators at 64-192 cells; on 2-D periodic
# constant complex A, 2.4e-15 to 1.3e-13 at 24^2, up to 5.6e-13 at 48^2
# and 6.2e-15 to 1.2e-12 at 64^2 (the dense cap), where the skew A below
# fails the test.  Non-normal operators measure 0.05-0.09 (2-D Dirichlet
# mixed terms) and 0.21 (1-D variable coefficients); they keep the full D
# and take expm(-tD) per time.
_NORMAL_TOL = 1e-12
# The skew part's weight in C.  It separates eigenvalues of L that share
# a real part: without it, the 2-D periodic A = I + 0.3i [[1, .5], [.5, -1]]
# measures 0.18 and takes expm per time.  Two eigenvalues still meet in C
# where their real and imaginary gaps are in ratio -_SKEW_WEIGHT; the
# golden-ratio conjugate keeps clear of the simple ratios of hand-written
# coefficients, and where C does degenerate the share test keeps the full
# D, so the weight sets speed, never accuracy.
_SKEW_WEIGHT = (math.sqrt(5.0) - 1.0) / 2.0
# _s7_quadrature splits each cell of the active disk into _S7_REFINE^2
# points, visits only the quadrant x1, x2 >= 0 (the integrand is even in
# each coordinate), and yields at most _S7_BLOCK points at a time: held at
# once, the 8.1 M points of the whole 512^2 grid at p = 2.01 peaked at
# 1.8 GB; the quadrant holds 2.1 M.
_S7_REFINE = 12
_S7_BLOCK = 2 ** 14
# Power-method steps per start of contractivity_probe (evidence only),
# and its random starts, drawn from a fixed seed.
_POWER_ITERS = 40
_PROBE_TRIALS, _PROBE_SEED = 4, 1


@dataclasses.dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on [-extent, extent]^dim."""

    dim: int
    cells: int
    extent: float
    boundary: str = "periodic"

    def __post_init__(self):
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
               for v in (self.dim, self.cells)):
            raise ParameterError(f"dim and cells must be integers, got "
                                 f"{self.dim!r} and {self.cells!r}")
        if self.dim not in (1, 2):
            raise ParameterError("dim must be 1 or 2")
        if self.cells < 8:
            raise ParameterError("need at least 8 cells per axis")
        if self.cells ** self.dim > MAX_CELLS:
            raise ParameterError(f"grid has more than {MAX_CELLS} cells")
        if not 0 < self.extent < math.inf:
            raise ParameterError("extent must be positive and finite")
        if self.boundary not in ("periodic", "dirichlet"):
            raise ParameterError("boundary must be 'periodic' or 'dirichlet'")

    @property
    def h(self) -> float:
        return 2.0 * self.extent / self.cells

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells,) * self.dim

    @property
    def size(self) -> int:
        return self.cells ** self.dim

    def axis(self) -> np.ndarray:
        return -self.extent + (np.arange(self.cells) + 0.5) * self.h

    def meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*([self.axis()] * self.dim), indexing="ij"))


@dataclasses.dataclass(frozen=True)
class GridFunction:
    """Complex scalar (or vector, trailing axis) field of cell values."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape[: self.grid.dim] != self.grid.shape:
            raise ValueError("value array does not match the grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function has non-finite entries")
        object.__setattr__(self, "values", v)


def sample(grid: Grid, expr) -> GridFunction:
    """Evaluate a callable of the coordinate arrays at cell centers."""
    return GridFunction(grid, np.asarray(expr(*grid.meshes()), dtype=complex)
                        + np.zeros(grid.shape))


def gradient(f: GridFunction) -> GridFunction:
    """Centered second-order gradient; periodic wrap, or one-sided
    second-order stencils at Dirichlet walls.  Output gains a trailing
    component axis."""
    g = f.grid
    v = f.values
    comps = []
    for a in range(g.dim):
        if g.boundary == "periodic":
            comps.append((np.roll(v, -1, axis=a) - np.roll(v, 1, axis=a))
                         / (2.0 * g.h))
        else:
            comps.append(np.gradient(v, g.h, axis=a, edge_order=2))
    return GridFunction(g, np.stack(comps, axis=-1))


def integrate(f: GridFunction):
    """h^dim-weighted sum over cells (midpoint quadrature)."""
    g = f.grid
    total = np.sum(f.values, axis=tuple(range(g.dim)))
    out = g.h ** g.dim * total
    return complex(out) if np.ndim(out) == 0 else out


def lp_norm(f: GridFunction, p: float) -> float:
    g = f.grid
    if math.isinf(p):
        return float(np.max(np.abs(f.values)))
    return float((g.h ** g.dim * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# coefficient fields


@dataclasses.dataclass(frozen=True)
class MatrixField:
    """Cell-wise coefficient matrix A(x) with recorded uniform bounds."""

    grid: Grid
    mats: np.ndarray
    lam: float = dataclasses.field(init=False)
    Lam: float = dataclasses.field(init=False)

    def __post_init__(self):
        m = np.asarray(self.mats, dtype=complex)
        d = self.grid.dim
        if m.shape != self.grid.shape + (d, d):
            raise ValueError("matrix array does not match the grid")
        object.__setattr__(self, "mats", m)
        lam, Lam, _ = _ellipticity.accretivity_bounds(m)
        if not lam > 0:
            raise ValueError("field is not uniformly accretive (lambda <= 0)")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "Lam", Lam)


def constant_field(grid: Grid, A: np.ndarray) -> MatrixField:
    A = np.asarray(A, dtype=complex)
    return MatrixField(grid, np.broadcast_to(
        A, grid.shape + A.shape).copy())


def two_value_field(grid: Grid, A0: np.ndarray, A1: np.ndarray,
                    indicator) -> MatrixField:
    """A0 where indicator(coords) is falsy, A1 where truthy."""
    mask = np.asarray(indicator(*grid.meshes()), dtype=bool)
    A0 = np.asarray(A0, dtype=complex)
    A1 = np.asarray(A1, dtype=complex)
    mats = np.where(mask[..., None, None], A1, A0)
    return MatrixField(grid, mats)


def section7_field(grid: Grid, gamma: float) -> MatrixField:
    """I - i*gamma*chi_E*R on the plane, E = {|x1| >= |x2|}."""
    if grid.dim != 2:
        raise ParameterError("requires a 2-D grid")
    if not 0 <= gamma < 1:
        raise ParameterError("gamma must lie in [0, 1)")
    X, Y = grid.meshes()
    chi = np.abs(X) >= np.abs(Y)
    A0 = np.eye(2, dtype=complex)
    A1 = np.eye(2) - 1j * gamma * _ellipticity.ROT_GEN
    return MatrixField(grid, np.where(chi[..., None, None], A1, A0))


def mollify(field: MatrixField, eps: float) -> MatrixField:
    """Convolve the coefficient field with a discretized, mass-normalized
    smooth radial bump of support radius eps (periodic wrap).

    eps = 0 returns the field unchanged.  The result is a cell-wise
    convex combination, so the accretivity and ellipticity functionals
    can only improve.
    """
    if eps < 0:
        raise ParameterError("eps must be nonnegative")
    g = field.grid
    if g.boundary != "periodic":
        raise ParameterError("mollification requires a periodic grid")
    K = int(math.ceil(eps / g.h)) - 1 if eps > 0 else 0
    K = max(K, 0)
    offsets, weights = [], []
    for off in np.ndindex(*((2 * K + 1,) * g.dim)):
        shift = np.array(off) - K
        r = np.linalg.norm(shift) * g.h / eps if eps > 0 else 0.0
        if r < 1.0:
            offsets.append(shift)
            weights.append(math.exp(-1.0 / (1.0 - r * r)))
    w = np.array(weights)
    w /= w.sum()
    out = np.zeros_like(field.mats)
    for shift, wk in zip(offsets, w):
        out += wk * np.roll(field.mats, tuple(-shift), axis=tuple(range(g.dim)))
    return MatrixField(g, out)


# ---------------------------------------------------------------------------
# the dissipativity functional


def _pairing(mats: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cell-wise <A u, v> = sum_j (A u)_j conj(v_j)."""
    Au = np.einsum("...jk,...k->...j", mats, u)
    return np.sum(Au * v.conjugate(), axis=-1)


def dissipativity_functional(A: MatrixField, f: GridFunction,
                             p: float) -> tuple[float, float]:
    """Re integral of <A grad f, grad(|f|^{p-2} f)> with discrete
    gradients, together with the companion value
    (1/p) integral of the power-function Hessian form at (f, grad f),
    evaluated cell-wise by :func:`pellip.bellman.hess_form_power`.

    The two agree up to O(h^2); p >= 2 only — for p < 2 evaluate the
    dual form with the adjoint field and the conjugate exponent.
    """
    if p < 2:
        raise ParameterError(
            "p >= 2 required; for p < 2 use the adjoint field with the "
            "conjugate exponent (duality of the form)")
    g = A.grid
    grad = gradient(f).values
    af = np.abs(f.values)
    afs = np.where(af == 0, 1.0, af)
    u = afs ** (p - 2.0) * f.values
    u = np.where(af == 0, 0.0, u)
    gu = gradient(GridFunction(g, u)).values
    value = float(np.real(g.h ** g.dim * np.sum(_pairing(A.mats, grad, gu))))

    # cells where f = 0 get zeta = 1 and are then left out
    nz = af > 0
    H = _bellman.hess_form_power(A.mats, p, np.where(nz, f.values, 1.0), grad)
    companion = float(g.h ** g.dim * np.sum(np.where(nz, H, 0.0)) / p)
    return value, companion


def _polar_terms(p: float, r, grad_r, grad_phi, w, weights):
    """Polar data of f = r e^{i phi}: the pointwise u = e^{-i phi} grad f
    and v = e^{-i phi} grad(|f|^{p-2} f), and the decomposition terms
      (p-1) r^{p-2} |grad r|^2,  r^p |grad phi|^2,  w J(r^p, phi)
    integrated against the quadrature ``weights``.  Their sum is the
    integral of Re<A u, v> when Im A = w R (w is None: no Im A term).
    """
    u = grad_r + 1j * r[..., None] * grad_phi
    v = (p - 1.0) * r[..., None] ** (p - 2.0) * grad_r \
        + 1j * r[..., None] ** (p - 1.0) * grad_phi
    t1 = float(np.sum(weights * (p - 1.0) * r ** (p - 2.0)
                      * np.sum(grad_r ** 2, axis=-1)))
    t2 = float(np.sum(weights * r ** p * np.sum(grad_phi ** 2, axis=-1)))
    t3 = 0.0
    if w is not None:
        jac = p * r ** (p - 1.0) * (grad_r[..., 0] * grad_phi[..., 1]
                                    - grad_r[..., 1] * grad_phi[..., 0])
        t3 = float(np.sum(weights * w * jac))
    return u, v, (t1, t2, t3)


def dissipativity_from_polar(A: MatrixField, p: float, r: np.ndarray,
                             grad_r: np.ndarray, grad_phi: np.ndarray):
    """Dissipativity value for f = r e^{i phi} given closed-form polar
    data (the global phase cancels, so phi itself is not needed).

    Requires A = I + i w R cell-wise, with R the rotation generator and
    w real (in 1-D, A = 1); raises ParameterError for any other field.
    Returns (value, terms) where terms = (elliptic-in-r, elliptic-in-phi,
    rotational) is the decomposition
      (p-1) r^{p-2} |grad r|^2 + r^p |grad phi|^2 + w J(r^p, phi),
    with J the Jacobian determinant.  value integrates the exact
    sesquilinear integrand; both quantities agree pointwise by algebra,
    so the pair serves as a self-check.
    """
    g = A.grid
    m = A.mats
    if not (np.all(m.real == np.eye(g.dim))
            and np.all(m.imag == -np.swapaxes(m.imag, -1, -2))):
        raise ParameterError(
            "polar decomposition needs Re A = I and antisymmetric Im A")
    w = m[..., 1, 0].imag if g.dim == 2 else None
    u, v, terms = _polar_terms(p, r, grad_r, grad_phi, w, g.h ** g.dim)
    value = float(g.h ** g.dim * np.sum(np.real(_pairing(m, u, v))))
    return value, terms


def random_polar_probe(grid: Grid, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random smooth decaying probe in polar form: returns (r, grad_r,
    grad_phi) with analytically exact gradients."""
    rng = np.random.default_rng(rng)
    coords = grid.meshes()
    a = rng.uniform(1.5, 4.0)
    rho2 = sum(c * c for c in coords)
    alpha = rng.uniform(-3.0, 3.0, size=grid.dim)
    beta = rng.uniform(-2.0, 2.0)
    r = np.exp(-a * rho2)
    grad_r = np.stack([-2.0 * a * c * r for c in coords], axis=-1)
    if grid.dim == 2:
        X, Y = coords
        # phi = alpha0*X*Y + beta*sin(X)*cos(Y) + alpha1*X
        grad_phi = np.stack(
            [alpha[0] * Y + beta * np.cos(X) * np.cos(Y) + alpha[1],
             alpha[0] * X - beta * np.sin(X) * np.sin(Y)], axis=-1)
    else:
        (X,) = coords
        grad_phi = np.stack([alpha[0] + beta * np.cos(X)], axis=-1)
    return r, grad_r, grad_phi


# ---------------------------------------------------------------------------
# structural identity checks


def identity_checks(A: MatrixField, B: MatrixField, f: GridFunction,
                    g: GridFunction, params) -> dict:
    """Residuals of three exact continuum identities under discretization.

    (i)  p * dissipativity value vs the integrated power-function
         Hessian form (chain rule inside the gradient);
    (ii) the integral of <W grad f, grad g> for the constant
         antisymmetric W (zero for divergence-free antisymmetric parts;
         exactly zero on periodic grids);
    (iii) the chain rule for the Bellman function: the pair of
         first-derivative pairings vs the generalized Hessian form.
    """
    p = params.p
    gr = A.grid
    val, comp = dissipativity_functional(A, f, p)
    res_i = abs(p * (val - comp))

    grad_f = gradient(f).values
    grad_g = gradient(g).values
    if gr.dim == 2:
        W = _ellipticity.ROT_GEN
        pairing = np.einsum("jk,...k,...j->...", W, grad_f, grad_g.conjugate())
        res_ii = abs(complex(gr.h ** gr.dim * np.sum(pairing)))
    else:
        res_ii = 0.0

    dQz, dQe = _bellman.bellman_gradient(params, f.values, g.values)
    gz = gradient(GridFunction(gr, dQz)).values
    ge = gradient(GridFunction(gr, dQe)).values
    lhs = 2.0 * np.real(_pairing(A.mats, grad_f, gz)) \
        + 2.0 * np.real(_pairing(B.mats, grad_g, ge))
    H4 = _bellman.hessian_q(params, f.values, g.values)
    w1 = np.concatenate([grad_f.real, grad_f.imag], axis=-1)
    w2 = np.concatenate([grad_g.real, grad_g.imag], axis=-1)
    rhs = _bellman._pair(H4, realify(A.mats), realify(B.mats), w1, w2)
    res_iii = abs(float(gr.h ** gr.dim * np.sum(lhs - rhs)))
    return {"hessian_identity": res_i,
            "antisymmetric_divfree": res_ii,
            "chain_rule": res_iii}


def default_identity_case(cells: int):
    """Smooth periodic 2-D test data staying on one Bellman branch, on
    [-_IDENTITY_EXTENT, _IDENTITY_EXTENT]^2."""
    L = _IDENTITY_EXTENT
    grid = Grid(2, cells, L, "periodic")

    # exp-of-trig data: smooth and periodic but not band-limited, so the
    # discretization error is visible (pure trig polynomials integrate
    # exactly and would hide it)
    def f_expr(X, Y):
        return (2.0 + 0.3 * np.exp(np.sin(np.pi * X / L)) * np.cos(np.pi * Y / L)
                + 0.25j * np.sin(np.pi * X / L + 0.5 * np.cos(np.pi * Y / L)))

    def g_expr(X, Y):
        return (0.5 + 0.075 * np.exp(0.5 * np.cos(np.pi * X / L))
                * np.sin(np.pi * Y / L)
                + 0.1j * np.cos(np.pi * Y / L + np.sin(np.pi * X / L)))

    f = sample(grid, f_expr)
    g = sample(grid, g_expr)
    A = constant_field(grid, np.array([[1.0, 0.2 + 0.3j],
                                       [-0.1 + 0.2j, 1.2]]))
    B = constant_field(grid, np.array([[1.1, 0.1 - 0.2j],
                                       [0.2 + 0.1j, 0.9]]))
    return A, B, f, g


def refinement_study(params) -> dict:
    """Residuals of :func:`identity_checks` on :func:`default_identity_case`
    on the ``_REFINEMENT_CELLS`` grids, with empirical convergence orders;
    residuals below ``_RESIDUAL_FLOOR`` count as converged (order inf)."""
    residuals = []
    for c in _REFINEMENT_CELLS:
        A, B, f, g = default_identity_case(c)
        residuals.append(identity_checks(A, B, f, g, params))
    orders = {}
    for key in residuals[0]:
        seq = [r[key] for r in residuals]
        ords = []
        for r0, r1 in zip(seq, seq[1:]):
            if max(r0, r1) < _RESIDUAL_FLOOR:
                ords.append(math.inf)
            else:
                ords.append(math.log2(max(r0, _RESIDUAL_FLOOR)
                                      / max(r1, _RESIDUAL_FLOOR)))
        orders[key] = ords
    return {"cells": list(_REFINEMENT_CELLS), "residuals": residuals,
            "orders": orders}


# ---------------------------------------------------------------------------
# the rotational counterexample


def _s7_quadrature(grid: Grid, p: float):
    """Midpoint quadrature on the grid, with every cell where the weight
    r^p = e^{-pi p rho^2} is non-negligible subdivided
    _S7_REFINE x _S7_REFINE, folded onto the quadrant x1, x2 >= 0.

    The rotational integrand has a derivative kink along the diagonals
    |x| = |y|; plain midpoint quadrature there carries an O(h^2) error
    whose constant can exceed the sign margin of the functional, so the
    whole active disk is refined uniformly.

    Every summand of :func:`counterexample_section7` is even in x1 and in
    x2: a sign flip of x1 negates grad_r[0] and grad_phi[1] and keeps
    grad_r[1] and grad_phi[0], so |grad r|^2, |grad phi|^2, J(r, phi) and
    chi_E are unchanged.  The sub-cell offsets and the disk test are
    mirror-symmetric too, so only the cells of index >= cells // 2 on each
    axis are visited, each weighted by the number of mirror cells it
    stands for: 2 per axis, 1 for the centre line of an odd grid.  That is
    a quarter of the points (a quarter plus one axis strip on odd grids),
    and the weights stay power-of-two multiples of h^2 and h^2/_S7_REFINE^2.
    Selecting the half by index, not by the sign of the coordinate, keeps
    the fold exact where h is not dyadic and the axis is symmetric only to
    an ulp.

    Yields flat (X, Y, W) blocks of at most _S7_BLOCK points: the
    unrefined outer cells first, then whole refined cells.  Besides the
    quadrant's cell centers, at most one block is held at once, however
    large the grid or the refined disk.
    """
    half = grid.axis()[grid.cells // 2:]
    mult = np.full(half.size, 2.0)
    mult[0] = 1.0 if grid.cells % 2 else 2.0  # an odd grid's centre line
    X, Y = (m.reshape(-1) for m in np.meshgrid(half, half, indexing="ij"))
    M = np.outer(mult, mult).reshape(-1)
    h = grid.h
    R = math.sqrt(12 * math.log(10.0) / (math.pi * p)) + h  # r^p >= 1e-12
    active = X * X + Y * Y <= R * R
    Xo, Yo, Wo = X[~active], Y[~active], M[~active] * (h * h)
    for s in range(0, Xo.size, _S7_BLOCK):
        yield Xo[s:s + _S7_BLOCK], Yo[s:s + _S7_BLOCK], Wo[s:s + _S7_BLOCK]
    sub = (np.arange(_S7_REFINE) + 0.5) / _S7_REFINE - 0.5
    dx, dy = (d.reshape(-1) for d in np.meshgrid(sub * h, sub * h, indexing="ij"))
    Xa, Ya, Wa = X[active], Y[active], M[active] * (h * h / dx.size)
    step = _S7_BLOCK // dx.size  # whole refined cells per block
    for s in range(0, Xa.size, step):
        x = (Xa[s:s + step, None] + dx).reshape(-1)
        y = (Ya[s:s + step, None] + dy).reshape(-1)
        yield x, y, np.repeat(Wa[s:s + step], dx.size)


def counterexample_section7(p: float, gammas, grid: Grid) -> list[dict]:
    """Dissipativity of A = I - i*gamma*chi_E*R on E = {|x1| >= |x2|},
    tested on f = exp(-pi |x|^2 - i p x1 x2), with the closed-form
    decomposition into elliptic and rotational parts, for every gamma
    of ``gammas``: one dict per gamma, in input order.

    Only w = -gamma*chi_E depends on gamma, and A = I + i w R gives
    Re<A u, v> = Re<u, v> + w Re(i <R u, v>) exactly, so the value is
    affine in gamma and the rotational term linear in it.  One pass over
    the blocks of :func:`_s7_quadrature` accumulates the gamma-free sums
    V0 = sum W Re<u, v>, V1 = sum W (-chi) Re(i <R u, v>), the elliptic
    terms t1, t2 and T3 = sum W (-chi) p r^{p-1} J(r, phi); each gamma
    reports value V0 + gamma V1 and terms (t1, t2, gamma T3).

    All gradients are closed-form, so the direct sesquilinear value and
    the decomposition are computed from identical point data and agree
    to rounding; ``decomposition_error`` is their difference relative to
    t1 + t2 + |gamma T3|, the size of the sums compared.  For large p the
    rotational term overwhelms the elliptic ones for gamma close to 1 and
    the functional goes negative.
    """
    if p <= 2:
        raise ParameterError("requires p > 2")
    gammas = [float(g) for g in gammas]
    if not all(0 <= g < 1 for g in gammas):
        raise ParameterError("gamma must lie in [0, 1)")
    if grid.dim != 2 or grid.extent < 4:
        raise ParameterError("requires a 2-D grid with extent >= 4")
    V0 = V1 = t1 = t2 = T3 = 0.0
    for X, Y, W in _s7_quadrature(grid, p):
        r = np.exp(-np.pi * (X * X + Y * Y))
        grad_r = np.stack([-2.0 * np.pi * X * r, -2.0 * np.pi * Y * r], axis=-1)
        # f = r e^{i phi} with phi = -p x1 x2
        grad_phi = np.stack([-p * Y, -p * X], axis=-1)
        neg_chi = np.where(np.abs(X) >= np.abs(Y), -1.0, 0.0)  # w / gamma
        u, v, (b1, b2, b3) = _polar_terms(p, r, grad_r, grad_phi, neg_chi, W)
        Ru = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        V0 += float(np.sum(W * np.real(np.sum(u * v.conjugate(), axis=-1))))
        # Re(i z) = -Im z
        V1 -= float(np.sum(W * neg_chi * np.imag(np.sum(Ru * v.conjugate(), axis=-1))))
        t1, t2, T3 = t1 + b1, t2 + b2, T3 + b3
    rows = []
    for gamma in gammas:
        value = V0 + gamma * V1
        terms = (t1, t2, gamma * T3 + 0.0)  # + 0.0: gamma = 0 gives 0.0, not -0.0
        # relative to the size of the sums compared, not to |value|, which
        # vanishes at the sign change while the sums stay O(1)
        rel = abs(value - sum(terms)) / (t1 + t2 + abs(terms[2]))
        rows.append({"value": value, "terms": terms, "decomposition_error": rel})
    return rows


# ---------------------------------------------------------------------------
# discrete operators and semigroups


@dataclasses.dataclass(frozen=True)
class OperatorMatrix:
    """Dense -div(A grad) on the cell values of ``grid``.

    Its semigroup comes from one unitary change of basis, computed on
    first use and kept with the operator (``_factor``), which makes L
    diagonal when it is normal.
    """

    matrix: np.ndarray
    grid: Grid

    def __post_init__(self):
        # the cached factor describes these entries
        self.matrix.flags.writeable = False

    @functools.cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q, D) with Q unitary and L = Q D Q^H in matrix form: D is the
        vector of eigenvalues when L is normal, else the matrix Q^H L Q.

        A normal L = H + iK (H, K Hermitian) has H and K commuting, so the
        eigenvectors of the Hermitian C = H + _SKEW_WEIGHT K diagonalize
        it; one ``eigh`` of C gives Q, and D = Q^H L Q is taken as
        diagonal when its off-diagonal part is rounding (see
        ``_NORMAL_TOL``).  The diagonal factor is then exact for L + E
        with ||E||_F <= _NORMAL_TOL ||L||_F.  Any other L keeps the full
        D, which a unitary Q leaves as well conditioned as L itself.
        """
        L = self.matrix
        M = (1.0 - 1j * _SKEW_WEIGHT) * L  # C = (M + M^H) / 2
        _, Q = np.linalg.eigh((M + M.conj().T) / 2.0)
        D = Q.conj().T @ (L @ Q)
        d = np.diag(D).copy()
        np.fill_diagonal(D, 0.0)
        if np.linalg.norm(D) <= _NORMAL_TOL * np.linalg.norm(L):
            return Q, d
        np.fill_diagonal(D, d)
        return Q, D


def _centered_1d(c: int, h: float, periodic: bool):
    """Centered difference on c cells; periodic wrap, or zero ghost
    values outside Dirichlet walls."""
    w = 1.0 / (2 * h)
    offsets = (1, -1, 1 - c, c - 1) if periodic else (1, -1)
    return scipy.sparse.diags((w, -w, w, -w)[:len(offsets)], offsets,
                              shape=(c, c), format="csr")


def _face_grad_1d(c: int, h: float):
    """(c+1) x c forward difference to faces, zero Dirichlet ghosts."""
    return scipy.sparse.diags((1.0 / h, -1.0 / h), (0, -1), shape=(c + 1, c),
                              format="csr")


def _along(D1, axis: int, dim: int):
    """The 1-D difference D1 acting along one axis of a dim-D grid."""
    if dim == 1:
        return D1
    eye = scipy.sparse.identity(D1.shape[1])
    if axis == 0:
        return scipy.sparse.kron(D1, eye, format="csr")
    return scipy.sparse.kron(eye, D1, format="csr")


def _face_average(a: np.ndarray, axis: int) -> np.ndarray:
    """Cell values to faces along an axis; boundary faces copy the
    adjacent cell."""
    pad = [(0, 0)] * a.ndim
    pad[axis] = (1, 1)
    e = np.moveaxis(np.pad(a, pad, mode="edge"), axis, 0)
    return np.moveaxis((e[:-1] + e[1:]) / 2.0, 0, axis)


def discretize_operator(A: MatrixField) -> OperatorMatrix:
    """Dense matrix of -div(A grad) on cell values, the sum over (j, k)
    of C_j^T diag(a_jk) C_k with C_j the centered difference along axis j.

    Periodic grids use centered differences throughout, which gives
    exact summation by parts against :func:`gradient` and exact adjoint
    consistency.  Dirichlet grids replace the diagonal terms by the
    face-flux form G_j^T diag(a_jj at faces) G_j (the classical
    second-difference stencil) and use zero ghosts for mixed terms.
    """
    g = A.grid
    N = g.size
    if N > 4096:
        raise ParameterError("operator too large for dense storage")
    periodic = g.boundary == "periodic"
    C1 = _centered_1d(g.cells, g.h, periodic)
    G1 = _face_grad_1d(g.cells, g.h)
    L = scipy.sparse.csr_matrix((N, N), dtype=complex)
    for j in range(g.dim):
        for k in range(g.dim):
            if j == k and not periodic:
                a = _face_average(A.mats[..., j, j], axis=j)
                Dj = Dk = _along(G1, j, g.dim)
            else:
                a = A.mats[..., j, k]
                Dj, Dk = _along(C1, j, g.dim), _along(C1, k, g.dim)
            L = L + Dj.T @ (scipy.sparse.diags(a.reshape(-1)) @ Dk)
    return OperatorMatrix(L.toarray(), g)


def _propagator(L: OperatorMatrix, times, v: np.ndarray) -> np.ndarray:
    """e^{-tL} v for the columns of v (N x k) and every t of ``times``, as
    an N x k x len(times) array, in the basis Q of the factor of L:
    Q (e^{-d t} * Q^H v) over all times when L is normal (D = diag d),
    Q expm(-tD) Q^H v per time otherwise."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ParameterError("time must be finite and nonnegative")
    Q, D = L._factor
    w = Q.conj().T @ v
    if D.ndim == 1:
        w = np.exp(-np.multiply.outer(D, times))[:, None, :] * w[:, :, None]
    else:
        w = np.stack([scipy.linalg.expm(-t * D) @ w for t in times], axis=-1)
    return (Q @ w.reshape(len(Q), -1)).reshape(w.shape)


def semigroup_apply(L: OperatorMatrix, t: float, f: GridFunction) -> GridFunction:
    """e^{-tL} f from the factor of L, which the first call computes and
    later calls on the same operator reuse; f must live on L's grid."""
    if f.grid != L.grid:
        raise ParameterError("function and operator live on different grids")
    v = _propagator(L, [t], f.values.reshape(-1, 1))
    return GridFunction(L.grid, v.reshape(L.grid.shape))


def heat_flow_experiment(A: MatrixField, B: MatrixField, f: GridFunction,
                         g: GridFunction, p: float) -> dict:
    """Bellman energy flow along the two semigroups at ``_HEAT_TIMES``.

    Tracks E(t) = integral of Q(e^{-tL_A} f, e^{-tL_B} g), checks it is
    nonincreasing, accumulates the bilinear gradient integrand and
    compares with both the energy budget E(0)/a0 and the closed
    constant (20/delta_p)(Lam/lam) ||f||_p ||g||_q, with slack ``_HEAT_TOL``.
    A, B, f and g must share one grid.  Each flow is propagated from t = 0
    to all heat times in one product (see :func:`_propagator`), and the
    energy and bilinear integrands are evaluated on the trailing time axis.
    """
    gr = A.grid
    if not B.grid == f.grid == g.grid == gr:
        raise ParameterError("A, B, f and g must live on one grid")
    c = _bellman.pair_constants(A, B, p)
    if not c.delta_p > 0:
        raise ParameterError("joint p-ellipticity constant must be positive")
    params = _bellman.BellmanParams(p, c.delta)
    LA = discretize_operator(A)
    LB = LA if B is A else discretize_operator(B)
    shape = gr.shape + (_HEAT_TIMES.size,)
    ft, gt = (GridFunction(gr, _propagator(L, _HEAT_TIMES, u.values.reshape(-1, 1))
                           .reshape(shape)) for L, u in ((LA, f), (LB, g)))
    energy = np.real(integrate(GridFunction(
        gr, _bellman.bellman_value(params, ft.values, gt.values))))
    nf = np.linalg.norm(gradient(ft).values, axis=-1)
    ng = np.linalg.norm(gradient(gt).values, axis=-1)
    bilinear = np.real(integrate(GridFunction(gr, nf * ng)))
    monotone = bool(np.all(np.diff(energy) <= _HEAT_TOL * np.maximum(energy[:-1], 1.0)))
    time_integral = float(np.sum(np.diff(_HEAT_TIMES)
                                 * (bilinear[1:] + bilinear[:-1]) / 2.0))
    a0 = c.bound
    budget_ok = a0 * time_integral <= energy[0] + _HEAT_TOL
    closed = (20.0 / c.delta_p) * (c.Lam / c.lam) * lp_norm(f, p) * lp_norm(g, params.q)
    return {
        "times": _HEAT_TIMES.copy(),
        "energy": energy,
        "bilinear": bilinear,
        "monotone": monotone,
        "budget_ok": budget_ok,
        "time_integral": time_integral,
        "ratio": time_integral / closed,
        "a0": a0,
        "delta": params.delta,
    }


def contractivity_probe(L: OperatorMatrix, p: float, t: float) -> float:
    """Largest observed ||e^{-tL} f||_p / ||f||_p over ``_PROBE_TRIALS``
    random starts, each refined by ``_POWER_ITERS`` nonlinear power-method
    steps for p-norms.  Evidence only: a lower bound on the discrete
    operator norm."""
    if not 1 < p < math.inf:
        raise ParameterError("exponent p must be finite and satisfy p > 1")
    rng = np.random.default_rng(_PROBE_SEED)
    N = L.grid.size
    E = _propagator(L, [t], np.eye(N))[:, :, 0]
    q = p / (p - 1.0)
    best = 0.0

    def ratio(x):
        y = E @ x
        return (np.sum(np.abs(y) ** p) / np.sum(np.abs(x) ** p)) ** (1.0 / p)

    for _ in range(_PROBE_TRIALS):
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        x /= np.linalg.norm(x)
        for _ in range(_POWER_ITERS):
            y = E @ x
            ay = np.abs(y)
            u = np.where(ay == 0, 0.0, ay ** (p - 2.0)) * y
            z = E.conj().T @ u
            az = np.abs(z)
            x = np.where(az == 0, 0.0, az ** (q - 2.0)) * z
            nx = np.linalg.norm(x)
            if nx == 0:
                break
            x /= nx
        if np.linalg.norm(x) > 0:
            best = max(best, float(ratio(x)))
    return best
