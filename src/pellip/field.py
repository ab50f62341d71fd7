"""Grid calculus for divergence-form operators with complex coefficients.

Uniform periodic or Dirichlet grids in one and two dimensions, centered
finite differences, dense discretized operators -div(A grad), their
semigroups e^{-tL} from one complex Schur factor per operator (diagonal
exponentials when L is normal, the exponential of the triangular factor
otherwise), the L^p dissipativity functional and its polar-coordinate
decomposition, and the heat-flow energy experiment.

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
# heat_flow_experiment samples t = 0 and 40 geometric steps from 1e-3 to
# 50, and integrates the bilinear integrand by the trapezoid rule on them.
_HEAT_TIMES = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 40)])
# Slack of its monotonicity and budget checks, for the rounding of the
# factored semigroup (at most 4.4e-12 ||f|| from an exact eigh reference).
_HEAT_TOL = 1e-9
# OperatorMatrix takes L as normal, and e^{-tT} as diagonal, when the
# strictly upper part of its Schur factor T holds at most this share of
# ||T||_F.  The QR algorithm returns the exact Schur form of L + E with
# ||E||_F of order N u ||L||_F (u = 1.1e-16), and for a normal L that is
# the size of the computed strictly upper part: below 4.5e-13 up to the
# 4096-cell dense cap, and measured at most 9.0e-15 (2-D, 48^2).  Dropping
# it perturbs L by at most this share of its norm.  Non-normal operators
# measure 0.06 (2-D Dirichlet mixed terms) to 0.23 (1-D variable
# coefficients) and take the expm fallback.
_NORMAL_TOL = 1e-12
# Power-method steps per start of contractivity_probe (evidence only).
_POWER_ITERS = 40


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


def refinement_study(params, cells=(64, 128, 256)) -> dict:
    """Residuals of :func:`identity_checks` on :func:`default_identity_case`
    under grid doubling, with empirical convergence orders; residuals
    below ``_RESIDUAL_FLOOR`` count as converged (order inf)."""
    residuals = []
    for c in cells:
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
    return {"cells": list(cells), "residuals": residuals, "orders": orders}


# ---------------------------------------------------------------------------
# the rotational counterexample


def _s7_quadrature(grid: Grid, p: float, refine: int = 12):
    """Midpoint quadrature on the grid, with every cell where the weight
    r^p = e^{-pi p rho^2} is non-negligible subdivided refine x refine.

    The rotational integrand has a derivative kink along the diagonals
    |x| = |y|; plain midpoint quadrature there carries an O(h^2) error
    whose constant can exceed the sign margin of the functional, so the
    whole active disk is refined uniformly.  Returns flat (X, Y, W).
    """
    X, Y = (m.reshape(-1) for m in grid.meshes())
    h = grid.h
    R = math.sqrt(12 * math.log(10.0) / (math.pi * p)) + h  # r^p >= 1e-12
    active = X * X + Y * Y <= R * R
    pts_x = [X[~active]]
    pts_y = [Y[~active]]
    wts = [np.full(int((~active).sum()), h * h)]
    if np.any(active):
        sub = (np.arange(refine) + 0.5) / refine - 0.5
        dx, dy = np.meshgrid(sub * h, sub * h, indexing="ij")
        pts_x.append((X[active, None] + dx.reshape(-1)).reshape(-1))
        pts_y.append((Y[active, None] + dy.reshape(-1)).reshape(-1))
        wts.append(np.full(pts_x[-1].shape, h * h / refine ** 2))
    return (np.concatenate(pts_x), np.concatenate(pts_y), np.concatenate(wts))


def counterexample_section7(p: float, gamma: float, grid: Grid) -> dict:
    """Dissipativity of A = I - i*gamma*chi_E*R on E = {|x1| >= |x2|},
    tested on f = exp(-pi |x|^2 - i p x1 x2), with the closed-form
    decomposition into elliptic and rotational parts.

    All gradients are closed-form, so the direct sesquilinear value and
    the decomposition are computed from identical point data and agree
    to rounding.  For large p the rotational term overwhelms the
    elliptic ones for gamma close to 1 and the functional goes negative.
    """
    if p <= 2:
        raise ParameterError("requires p > 2")
    if not 0 <= gamma < 1:
        raise ParameterError("gamma must lie in [0, 1)")
    if grid.dim != 2 or grid.extent < 4:
        raise ParameterError("requires a 2-D grid with extent >= 4")
    X, Y, W = _s7_quadrature(grid, p)
    r = np.exp(-np.pi * (X * X + Y * Y))
    grad_r = np.stack([-2.0 * np.pi * X * r, -2.0 * np.pi * Y * r], axis=-1)
    # f = r e^{i phi} with phi = -p x1 x2
    grad_phi = np.stack([-p * Y, -p * X], axis=-1)
    w = np.where(np.abs(X) >= np.abs(Y), -gamma, 0.0)
    u, v, terms = _polar_terms(p, r, grad_r, grad_phi, w, W)
    # A = I + i w R with R the rotation generator, so (A u) = u + i w R u
    Au = u + 1j * w[..., None] * np.stack([-u[..., 1], u[..., 0]], axis=-1)
    value = float(np.sum(W * np.real(np.sum(Au * v.conjugate(), axis=-1))))
    total = sum(terms)
    rel = abs(value - total) / max(abs(value), 1e-300)
    return {"value": value, "terms": terms, "decomposition_error": rel}


# ---------------------------------------------------------------------------
# discrete operators and semigroups


@dataclasses.dataclass(frozen=True)
class OperatorMatrix:
    """Dense -div(A grad) on the cell values of ``grid``."""

    matrix: np.ndarray
    grid: Grid
    field: MatrixField

    def __post_init__(self):
        # the cached Schur factor describes these entries
        self.matrix.flags.writeable = False

    @functools.cached_property
    def _schur(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """(Z, T, normal) with L = Z T Z^H in complex Schur form, computed
        on first use and kept with the operator; ``normal`` when the
        strictly upper part of T is rounding (see ``_NORMAL_TOL``)."""
        T, Z = scipy.linalg.schur(self.matrix, output="complex")
        off = np.linalg.norm(np.triu(T, 1))
        return Z, T, bool(off <= _NORMAL_TOL * np.linalg.norm(T))


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
    return OperatorMatrix(L.toarray(), g, A)


def _propagator(L: OperatorMatrix, t: float, v: np.ndarray) -> np.ndarray:
    """e^{-tL} v = Z e^{-tT} Z^H v for the columns of v, t >= 0, from the
    Schur factor of L: elementwise exponentials of diag T when L is
    normal, the exponential of the triangular T otherwise."""
    if t < 0:
        raise ParameterError("time must be nonnegative")
    Z, T, normal = L._schur
    w = Z.conj().T @ v
    if normal:
        w = np.exp(-t * np.diag(T))[:, None] * w
    else:
        w = scipy.linalg.expm(-t * T) @ w
    return Z @ w


def semigroup_apply(L: OperatorMatrix, t: float, f: GridFunction) -> GridFunction:
    """e^{-tL} f from the Schur factor of L, which the first call computes
    and later calls on the same operator reuse; f must live on L's grid."""
    if f.grid != L.grid:
        raise ParameterError("function and operator live on different grids")
    v = _propagator(L, t, f.values.reshape(-1, 1))
    return GridFunction(L.grid, v.reshape(L.grid.shape))


def heat_flow_experiment(A: MatrixField, B: MatrixField, f: GridFunction,
                         g: GridFunction, p: float) -> dict:
    """Bellman energy flow along the two semigroups at ``_HEAT_TIMES``.

    Tracks E(t) = integral of Q(e^{-tL_A} f, e^{-tL_B} g), checks it is
    nonincreasing, accumulates the bilinear gradient integrand and
    compares with both the energy budget E(0)/a0 and the closed
    constant (20/delta_p)(Lam/lam) ||f||_p ||g||_q, with slack ``_HEAT_TOL``.
    A, B, f and g must share one grid.  Each flow is applied from t = 0.
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
    energy, bilinear = [], []
    for t in _HEAT_TIMES:
        ft = semigroup_apply(LA, t, f)
        gt = semigroup_apply(LB, t, g)
        energy.append(float(np.real(integrate(GridFunction(
            gr, _bellman.bellman_value(params, ft.values, gt.values))))))
        nf = np.linalg.norm(gradient(ft).values, axis=-1)
        ng = np.linalg.norm(gradient(gt).values, axis=-1)
        bilinear.append(float(gr.h ** gr.dim * np.sum(nf * ng)))
    energy = np.array(energy)
    bilinear = np.array(bilinear)
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


def contractivity_probe(L: OperatorMatrix, p: float, t: float,
                        trials: int = 10, rng=None) -> float:
    """Largest observed ||e^{-tL} f||_p / ||f||_p over random starts, each
    refined by ``_POWER_ITERS`` nonlinear power-method steps for p-norms.
    Evidence only: a lower bound on the discrete operator norm."""
    if not p > 1:
        raise ParameterError("exponent p must satisfy p > 1")
    rng = np.random.default_rng(rng)
    N = L.grid.size
    E = _propagator(L, t, np.eye(N))
    q = p / (p - 1.0)
    best = 0.0

    def ratio(x):
        y = E @ x
        return (np.sum(np.abs(y) ** p) / np.sum(np.abs(x) ** p)) ** (1.0 / p)

    for _ in range(trials):
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
