"""Grid calculus for divergence-form operators with complex coefficients.

Uniform periodic or Dirichlet grids in one and two dimensions, centered
finite differences, discretized operators -div(A grad), their
semigroups e^{-tL} and e^{-tL^H} in one unitary basis per operator
(diagonal when L is normal: the grid's transform, DFT or DST-I, for a
constant coefficient, else one eigh of the dense operator's Hermitian
part), the L^p dissipativity functional and its polar decomposition,
the heat-flow energy experiment and the L^p contractivity probe.

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

from . import ParameterError, VerificationError
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
    "dissipativity_verify",
    "refinement_study",
    "default_identity_case",
    "counterexample_section7",
    "semigroup_apply",
    "heat_flow_experiment",
    "heat_flow_verify",
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
# factored semigroup, measured over the heat times: the DFT factor at most
# 2.1e-14 ||f|| from an extended-precision reference on constant periodic
# operators (1-D at 64-192 cells with |arg a| <= 1.4, 2-D at 16^2-48^2);
# the DST factor at most 5.9e-16 ||f|| on constant Dirichlet operators
# (the same 1-D cases, and diag(e^{0.3i}, e^{-0.3i}) at 16^2-48^2); the
# eigh factor 6.4e-13 ||f|| from dense expm on 1-D variable fields.
_HEAT_TOL = 1e-9
# An operator that no transform diagonalizes, L = H + iK (H, K Hermitian),
# is taken as normal, and its semigroup as diagonal, when D = Q^H L Q, Q
# the eigenvectors of H, holds at most this share of ||L||_F off its
# diagonal, which eigh's rounding leaves for a normal L.  Measured: 8.4e-16
# to 1.9e-15 on the normal e^{0.5i}(1.5 + cos x) at 32-192 cells; 0.20-0.21
# on 1-D fields of varying phase, and 0.13 on the 2-D Dirichlet
# I + 0.3i [[1, .5], [.5, -1]], which keep the full D and take expm per time.
_NORMAL_TOL = 1e-12
# OperatorMatrix.matrix refuses more cells: the dense array takes 16 N^2
# bytes (268 MB at 4096 cells) and the eigh factor that reads it O(N^3) time.
_DENSE_CELLS = 4096
# _refuse_flow refuses more entries (cells x columns x times) before a flow
# allocates: 1-D heatflow (41 times) peaked at 316 MB RSS at 65536 cells.
_FLOW_ENTRIES = 2 ** 22
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
        h2 = float(self.h) * float(self.h)  # h enters as h, h^2 and their inverses
        if not (0 < h2 < math.inf and 1.0 / h2 < math.inf):
            raise ParameterError(f"extent {self.extent!r} is out of numeric range: h^2 "
                                 "and 1/h^2 (h = 2 extent / cells) must be finite")
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
    return GridFunction(f.grid, _gradient_values(f.grid, f.values))


def _gradient_values(g: Grid, v: np.ndarray) -> np.ndarray:
    """:func:`gradient` of the cell values v as a bare array, with no
    finiteness check: a caller that may overflow refuses it itself."""
    comps = []
    for a in range(g.dim):
        if g.boundary == "periodic":
            comps.append((np.roll(v, -1, axis=a) - np.roll(v, 1, axis=a))
                         / (2.0 * g.h))
        else:
            comps.append(np.gradient(v, g.h, axis=a, edge_order=2))
    return np.stack(comps, axis=-1)


def integrate(f: GridFunction):
    """h^dim-weighted sum over cells (midpoint quadrature)."""
    g = f.grid
    total = np.sum(f.values, axis=tuple(range(g.dim)))
    out = g.h ** g.dim * total
    return complex(out) if np.ndim(out) == 0 else out


def lp_norm(f: GridFunction, p: float) -> float:
    """(h^dim sum |f|^p)^{1/p}, taken as m (h^dim sum (|f| / m)^p)^{1/p}
    with m = max |f|, so that |f|^p neither underflows nor overflows at
    large p; 0 for f = 0, and m at p = inf."""
    g = f.grid
    a = np.abs(f.values)
    m = float(a.max())
    if math.isinf(p) or not 0 < m < math.inf:
        return m
    return m * float((g.h ** g.dim * np.sum((a / m) ** p)) ** (1.0 / p))


# ---------------------------------------------------------------------------
# coefficient fields


@dataclasses.dataclass(frozen=True)
class MatrixField:
    """Cell-wise coefficient matrix A(x), uniformly accretive.

    The field-level constants (lambda, Lambda, nu, delta_p, mu) are
    infima and suprema over x of matrix constants, so only the distinct
    values of A enter them.  A field finds those once, when it is built:
    ``distinct`` holds them in the order of ``ellipticity._distinct``,
    and the reductions of :mod:`pellip.ellipticity` read them there.
    ``mats`` is read-only, so the two cannot drift apart.
    """

    grid: Grid
    mats: np.ndarray
    distinct: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.mats, dtype=complex)
        d = self.grid.dim
        if m.shape != self.grid.shape + (d, d):
            raise ValueError("matrix array does not match the grid")
        if m is self.mats or m.base is not None:  # the caller's memory: freeze a copy
            m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "mats", m)
        if "distinct" not in vars(self):  # else set by _of_values
            object.__setattr__(self, "distinct",
                               _ellipticity._distinct(m.reshape(-1, d, d)))
        # lambda = Delta_2(A): weighted_form(A, 2) is half of sym(M(A))
        if not _ellipticity.delta_p(self, 2.0) > 0:
            raise ValueError("field is not uniformly accretive (lambda <= 0)")

    @classmethod
    def _of_values(cls, grid: Grid, mats, values: np.ndarray) -> MatrixField:
        """MatrixField(grid, mats) for a ``mats`` whose cells are copies of
        the matrices ``values``, each of which occurs: the distinct set is
        ``_distinct(values)``, with no sort over the cells."""
        out = cls.__new__(cls)
        object.__setattr__(out, "distinct", _ellipticity._distinct(values))
        out.__init__(grid, mats)
        return out


def constant_field(grid: Grid, A: np.ndarray) -> MatrixField:
    A = np.asarray(A, dtype=complex)
    return MatrixField._of_values(grid, np.broadcast_to(A, grid.shape + A.shape),
                                  A[None])


def two_value_field(grid: Grid, A0: np.ndarray, A1: np.ndarray,
                    indicator) -> MatrixField:
    """A0 where indicator(coords) is falsy, A1 where truthy."""
    mask = np.asarray(indicator(*grid.meshes()), dtype=bool)
    A0 = np.asarray(A0, dtype=complex)
    A1 = np.asarray(A1, dtype=complex)
    mats = np.where(mask[..., None, None], A1, A0)
    present = np.stack([A0, A1])[[not mask.all(), mask.any()]]
    return MatrixField._of_values(grid, mats, present)


def section7_field(grid: Grid, gamma: float) -> MatrixField:
    """I - i*gamma*chi_E*R on the plane, E = {|x1| >= |x2|}."""
    if grid.dim != 2:
        raise ParameterError("requires a 2-D grid")
    if not 0 <= gamma < 1:
        raise ParameterError("gamma must lie in [0, 1)")
    return two_value_field(grid, np.eye(2), np.eye(2) - 1j * gamma * _ellipticity.ROT_GEN,
                           lambda X, Y: np.abs(X) >= np.abs(Y))


def mollify(field: MatrixField, eps: float) -> MatrixField:
    """Convolve the coefficient field with a discretized, mass-normalized
    smooth radial bump of support radius eps (periodic wrap).

    eps = 0 returns the field unchanged.  The result is a cell-wise
    convex combination, so the accretivity and ellipticity functionals
    can only improve.
    """
    if not 0 <= eps < math.inf:
        raise ParameterError("eps must be finite and nonnegative")
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
    dual form with the adjoint field and the conjugate exponent.  Raises
    ParameterError naming p where p is so large that |f|^{p-2} f or
    either value overflows a float.
    """
    if p < 2:
        raise ParameterError(
            "p >= 2 required; for p < 2 use the adjoint field with the "
            "conjugate exponent (duality of the form)")
    g = A.grid
    grad = gradient(f).values
    af = np.abs(f.values)
    afs = np.where(af == 0, 1.0, af)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        u = afs ** (p - 2.0) * f.values
    _refuse_overflow(p, "|f|^(p-2) f", u)
    u = np.where(af == 0, 0.0, u)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        gu = _gradient_values(g, u)
        value = float(np.real(g.h ** g.dim * np.sum(_pairing(A.mats, grad, gu))))
        # cells where f = 0 get zeta = 1 and are then left out
        nz = af > 0
        H = _bellman.hess_form_power(A.mats, p, np.where(nz, f.values, 1.0), grad)
        companion = float(g.h ** g.dim * np.sum(np.where(nz, H, 0.0)) / p)
    _refuse_overflow(p, "the dissipativity functional", value, companion)
    return value, companion


def _refuse_overflow(p: float, what: str, *values) -> None:
    """ParameterError naming p unless every entry of ``values`` is finite:
    a power of order p of O(1) data leaves the float range near p = 1000."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ParameterError(f"p = {p:g} is out of numeric range: {what} "
                             "overflows a float")


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
    sesquilinear integrand Re<u, v> + w Re(i <R u, v>), with
    u = e^{-i phi} grad f and v = e^{-i phi} grad(|f|^{p-2} f); both
    quantities agree pointwise by algebra, so the pair serves as a
    self-check.
    """
    g = A.grid
    m = A.mats
    if not (np.all(m.real == np.eye(g.dim))
            and np.all(m.imag == -np.swapaxes(m.imag, -1, -2))):
        raise ParameterError(
            "polar decomposition needs Re A = I and antisymmetric Im A")
    weight = g.h ** g.dim
    u = grad_r + 1j * r[..., None] * grad_phi
    v = (p - 1.0) * r[..., None] ** (p - 2.0) * grad_r \
        + 1j * r[..., None] ** (p - 1.0) * grad_phi
    s0 = float(np.sum(weight * np.real(np.sum(u * v.conjugate(), axis=-1))))
    t1 = float(np.sum(weight * (p - 1.0) * r ** (p - 2.0)
                      * np.sum(grad_r ** 2, axis=-1)))
    t2 = float(np.sum(weight * r ** p * np.sum(grad_phi ** 2, axis=-1)))
    s1 = t3 = 0.0
    if g.dim == 2:
        w = m[..., 1, 0].imag
        Ru = np.stack([-u[..., 1], u[..., 0]], axis=-1)
        # Re(i z) = -Im z
        s1 = -float(np.sum(weight * w * np.imag(np.sum(Ru * v.conjugate(), axis=-1))))
        jac = p * r ** (p - 1.0) * (grad_r[..., 0] * grad_phi[..., 1]
                                    - grad_r[..., 1] * grad_phi[..., 0])
        t3 = float(np.sum(weight * w * jac))
    return s0 + s1, (t1, t2, t3)


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
    """The pair (``value``, ``companion``) of :func:`dissipativity_functional`
    at (A, f, params.p) and the residuals of three exact continuum
    identities under discretization:

    (i)  ``hessian_identity``: p * value vs p * companion, the integrated
         power-function Hessian form (chain rule inside the gradient);
    (ii) ``antisymmetric_divfree``: the integral of <W grad f, grad g> for
         the constant antisymmetric W (zero for divergence-free
         antisymmetric parts; exactly zero on periodic grids);
    (iii) ``chain_rule``: the chain rule for the Bellman function, the
         pair of first-derivative pairings vs the generalized Hessian form.

    Raises ParameterError naming p where p is so large that the pair or
    a residual overflows a float.
    """
    p = params.p
    gr = A.grid
    val, comp = dissipativity_functional(A, f, p)

    grad_f = gradient(f).values
    grad_g = gradient(g).values
    if gr.dim == 2:
        pairing = _pairing(_ellipticity.ROT_GEN, grad_f, grad_g)
        res_ii = abs(complex(gr.h ** gr.dim * np.sum(pairing)))
    else:
        res_ii = 0.0

    MA = realify(A.mats)
    MB = MA if B is A else realify(B.mats)
    # refused just below: an overflow here leaves res_i or res_iii non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        res_i = abs(p * (val - comp))
        dQz, dQe = _bellman.bellman_gradient(params, f.values, g.values)
        lhs = 2.0 * np.real(_pairing(A.mats, grad_f, _gradient_values(gr, dQz))) \
            + 2.0 * np.real(_pairing(B.mats, grad_g, _gradient_values(gr, dQe)))
        H4 = _bellman.hessian_q(params, f.values, g.values)
        w1 = np.concatenate([grad_f.real, grad_f.imag], axis=-1)
        w2 = np.concatenate([grad_g.real, grad_g.imag], axis=-1)
        rhs = _bellman._pair(H4, MA, MB, w1, w2)
        res_iii = abs(float(gr.h ** gr.dim * np.sum(lhs - rhs)))
    if math.isfinite(val) and math.isfinite(comp):  # else reported as it came
        _refuse_overflow(p, "an identity residual", res_i, res_iii)
    return {"value": val, "companion": comp,
            "hessian_identity": res_i,
            "antisymmetric_divfree": res_ii,
            "chain_rule": res_iii}


def dissipativity_verify(A: MatrixField, p: float, seed: int) -> dict:
    """:func:`identity_checks` of (A, A) on a smooth pair drawn from
    ``seed``, at the delta of :func:`pellip.bellman.pair_constants`, which
    does not change with the scale of A.  Raises VerificationError where
    the value is below -1e-8 although delta_p(A) >= 0; where delta_p(A) < 0
    it gives the row with no verdict."""
    f, g = _smooth_pair(A.grid, np.random.default_rng(seed))
    c = _bellman.pair_constants(A, A, p)
    row = identity_checks(A, A, f, g, _bellman.BellmanParams(p, c.delta))
    if c.delta_p >= 0 and row["value"] < -1e-8:
        raise VerificationError(
            f"dissipativity functional negative ({row['value']:.6g}) although the "
            "p-ellipticity constant is nonnegative")
    return row


def _smooth_pair(grid: Grid, rng) -> tuple[GridFunction, GridFunction]:
    """f about 2 and g about 0.5: random cosine modes plus sin(pi x / L)."""
    L = grid.extent
    coords = grid.meshes()
    k = rng.integers(1, 3, size=(2, grid.dim))
    a = rng.uniform(0.1, 0.3, size=4)

    def mk(base, kk, a1, a2):
        tr = np.ones(grid.shape)
        for c, kc in zip(coords, kk):
            tr = tr * np.cos(kc * np.pi * c / L)
        return base + a1 * tr + 1j * a2 * np.sin(np.pi * coords[0] / L)

    return (GridFunction(grid, mk(2.0, k[0], a[0], a[1])),
            GridFunction(grid, mk(0.5, k[1], a[2], a[3])))


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
    for key in ("hessian_identity", "antisymmetric_divfree", "chain_rule"):
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


def counterexample_section7(p: float, gammas) -> list[dict]:
    """Dissipativity of A = I - i*gamma*chi_E*R on E = {|x1| >= |x2|},
    tested on f = r e^{i phi} = exp(-pi |x|^2 - i p x1 x2), in closed
    form, for every gamma of ``gammas``: one dict per gamma, in input
    order, with the value, its terms (elliptic in r, elliptic in phi,
    rotational) and the verdict: ``negative`` (value < 0) and
    ``first_negative`` (the first negative row in input order).

    With A = I + i w R and w = -gamma chi_E, the integrand of
    Re integral <A grad f, grad(|f|^{p-2} f)> is
      (p-1) r^{p-2} |grad r|^2 + r^p |grad phi|^2 + w p r^{p-1} J(r, phi)
    (see :func:`dissipativity_from_polar`).  Here grad r = -2 pi x r,
    grad phi = -p (x2, x1) and J(r, phi) = 2 pi p r (x1^2 - x2^2), so
    every term is a moment of r^p = e^{-a |x|^2}, a = pi p.  In polar
    coordinates (rho, theta), with the integral of rho^3 e^{-a rho^2}
    over rho > 0 equal to 1/(2 a^2):
      - the integral of |x|^2 e^{-a |x|^2} over the plane is pi / a^2,
        so t1 = 4 pi^2 (p-1) pi / a^2 = 4 pi (p-1) / p^2 and
        t2 = p^2 pi / a^2 = 1 / pi;
      - x1^2 - x2^2 = rho^2 cos(2 theta), and cos(2 theta) integrates to
        2 over the angles of E (|theta| <= pi/4 and its mirror), so the
        integral of (x1^2 - x2^2) e^{-a |x|^2} over E is 1 / a^2 and the
        rotational term is -gamma 2 pi p^2 / a^2 = gamma T3, T3 = -2 / pi.
    The value t1 + t2 + gamma T3 = 4 pi (p-1) / p^2 + (1 - 2 gamma) / pi
    is negative exactly when gamma > gamma*(p) = 1/2 + 2 pi^2 (p-1) / p^2,
    and gamma*(p) < 1 exactly when p^2 - 4 pi^2 p + 4 pi^2 > 0 with p > 2,
    i.e. p > 2 pi^2 + 2 pi sqrt(pi^2 - 1) ~ 38.45; gamma*(40) = 0.98114.

    t1 is written 4 pi (1/p - 1/p^2), so no p^2 overflows at large p.
    The value is the sum of the terms, so ``decomposition_error`` is 0.
    """
    if not p > 2:
        raise ParameterError("requires p > 2")
    if p == math.inf:
        raise ParameterError("requires finite p")
    gammas = [float(g) for g in gammas]
    if not all(0 <= g < 1 for g in gammas):
        raise ParameterError("gamma must lie in [0, 1)")
    x = 1.0 / p
    t1, t2, T3 = 4.0 * math.pi * (x - x * x), 1.0 / math.pi, -2.0 / math.pi
    rows, first = [], True
    for gamma in gammas:
        terms = (t1, t2, gamma * T3 + 0.0)  # + 0.0: gamma = 0 gives 0.0, not -0.0
        value = sum(terms)
        rows.append({"value": value, "terms": terms, "decomposition_error": 0.0,
                     "negative": value < 0, "first_negative": first and value < 0})
        first = first and not value < 0
    return rows


# ---------------------------------------------------------------------------
# discrete operators and semigroups


@dataclasses.dataclass(frozen=True)
class OperatorMatrix:
    """-div(A grad) on the cell values of its grid, for the coefficient
    field A = ``field``; everything else is derived from that field.

    e^{-tL} and e^{-tL^H} come from one unitary change of basis Q, computed
    on first use (``_factor``), which makes L diagonal when it is normal.
    ``matrix``, the dense array, is assembled when the ``eigh`` basis first
    reads it, and refused over ``_DENSE_CELLS`` cells.
    """

    field: MatrixField

    @property
    def grid(self) -> Grid:
        return self.field.grid

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Read-only dense matrix, the sum over (j, k) of C_j^T diag(a_jk)
        C_k with C_j the centered difference along axis j.

        Periodic grids use centered differences throughout, which gives
        exact summation by parts against :func:`gradient` and exact adjoint
        consistency.  Dirichlet grids replace the diagonal terms by the
        face-flux form G_j^T diag(a_jj at faces) G_j (the classical
        second-difference stencil) and use zero ghosts for mixed terms.
        """
        import scipy.sparse  # here and in its helpers: no other path reads it

        g, mats, N = self.grid, self.field.mats, self.grid.size
        if N > _DENSE_CELLS:
            raise ParameterError(f"operator on {N} cells too large for dense storage")
        periodic = g.boundary == "periodic"
        C1 = _centered_1d(g.cells, g.h, periodic)
        G1 = None if periodic else _face_grad_1d(g.cells, g.h)
        L = scipy.sparse.csr_matrix((N, N), dtype=complex)
        for j in range(g.dim):
            for k in range(g.dim):
                if j == k and not periodic:
                    a = _face_average(mats[..., j, j], axis=j)
                    Dj = Dk = _along(G1, j, g.dim)
                else:
                    a = mats[..., j, k]
                    Dj, Dk = _along(C1, j, g.dim), _along(C1, k, g.dim)
                L = L + Dj.T @ (scipy.sparse.diags(a.reshape(-1)) @ Dk)
        L = L.toarray()
        L.flags.writeable = False  # the cached factor describes these entries
        return L

    @functools.cached_property
    def _factor(self) -> tuple[np.ndarray | None, np.ndarray]:
        """(Q, D) with Q unitary and L = Q D Q^H in matrix form: D is the
        vector of eigenvalues when L is normal, else the matrix Q^H L Q.

        A constant field, with a its one value, is diagonalized by its
        grid's transform: Q = None (applied by :func:`_apply_basis`), with
        closed-form eigenvalues, and ``matrix`` is never read.  On a
        periodic grid L is circulant and Q the unitary inverse DFT: C_j has
        eigenvalue i sin(theta_j) / h on the mode m, theta_j = 2 pi m_j /
        cells, and C_j^T = -C_j, so d(m) = sum_jk a_jk sin(theta_j)
        sin(theta_k) / h^2.  On a Dirichlet grid where a_01 + a_10 = 0
        (always in 1-D) the mixed terms a_01 X + a_10 X cancel exactly, so
        L = sum_j a_jj T_j with T_j the second difference along axis j,
        which the orthonormal DST-I diagonalizes: d(k) = sum_j a_jj (2
        sin(pi k_j / (2 cells + 2)) / h)^2, k_j = 1..cells.

        Any other L = H + iK (H, K Hermitian), when normal, has H and K
        commuting, so one ``eigh`` of H gives a Q that diagonalizes L
        unless H repeats an eigenvalue that L splits; D = Q^H L Q is taken
        as diagonal when its off-diagonal part is rounding (see
        ``_NORMAL_TOL``).  A non-normal L keeps the full D, which a
        unitary Q leaves as well conditioned as L itself.
        """
        g, values = self.grid, self.field.distinct
        a, n = values[0], np.arange(g.cells)
        if len(values) == 1 and g.boundary == "periodic":
            s = np.meshgrid(*[np.sin(2.0 * np.pi * n / g.cells) / g.h] * g.dim, indexing="ij")
            d = sum(a[j, k] * s[j] * s[k] for j in range(g.dim) for k in range(g.dim))
            return None, d.reshape(-1)
        if len(values) == 1 and (g.dim == 1 or a[0, 1] + a[1, 0] == 0):
            s = (2.0 * np.sin(np.pi * (n + 1) / (2 * g.cells + 2)) / g.h) ** 2
            s = np.meshgrid(*[s] * g.dim, indexing="ij")
            return None, sum(a[j, j] * s[j] for j in range(g.dim)).reshape(-1)
        L = self.matrix
        _, Q = np.linalg.eigh((L + L.conj().T) / 2.0)
        D = Q.conj().T @ (L @ Q)
        d = np.diag(D).copy()
        np.fill_diagonal(D, 0.0)
        if np.linalg.norm(D) <= _NORMAL_TOL * np.linalg.norm(L):
            return Q, d
        np.fill_diagonal(D, d)
        return Q, D

    @functools.cached_property
    def _expm(self):
        """t -> expm(-tD), D non-normal; keeps the one t of the probe's steps."""
        import scipy.linalg  # here: only a non-normal flow reads it

        D = self._factor[1]
        return functools.lru_cache(maxsize=1)(lambda t: scipy.linalg.expm(-t * D))


def _centered_1d(c: int, h: float, periodic: bool):
    """Centered difference on c cells; periodic wrap, or zero ghost
    values outside Dirichlet walls."""
    import scipy.sparse

    w = 1.0 / (2 * h)
    offsets = (1, -1, 1 - c, c - 1) if periodic else (1, -1)
    return scipy.sparse.diags((w, -w, w, -w)[:len(offsets)], offsets,
                              shape=(c, c), format="csr")


def _face_grad_1d(c: int, h: float):
    """(c+1) x c forward difference to faces, zero Dirichlet ghosts."""
    import scipy.sparse

    return scipy.sparse.diags((1.0 / h, -1.0 / h), (0, -1), shape=(c + 1, c),
                              format="csr")


def _along(D1, axis: int, dim: int):
    """The 1-D difference D1 acting along one axis of a dim-D grid."""
    if dim == 1:
        return D1
    import scipy.sparse

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


def _propagator(L: OperatorMatrix, times, v: np.ndarray,
                adjoint: bool = False) -> np.ndarray:
    """e^{-tL} v, or e^{-tL^H} v (D^H for D) when ``adjoint``, for the columns
    of v (N x k) and every t of ``times``, as an N x k x len(times) array:
    Q (e^{-d t} * Q^H v) over all times when L is normal (D = diag d), Q
    expm(-tD) Q^H v per time otherwise.  Over ``_FLOW_ENTRIES`` entries are refused."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ParameterError("time must be finite and nonnegative")
    _refuse_flow(v.size * times.size)
    d = L._factor[1]
    w = _apply_basis(L, v, adjoint=True)
    if d.ndim == 1:
        d = d.conj() if adjoint else d
        w = np.exp(-np.multiply.outer(d, times))[:, None, :] * w[:, :, None]
    else:
        E = (L._expm(t) for t in times)
        w = np.stack([(e.conj().T if adjoint else e) @ w for e in E], axis=-1)
    return _apply_basis(L, w.reshape(len(d), -1), adjoint=False).reshape(w.shape)


def _refuse_flow(entries: int) -> None:
    if entries > _FLOW_ENTRIES:
        raise ParameterError(f"flow of {entries} entries exceeds {_FLOW_ENTRIES}")


def _apply_basis(L: OperatorMatrix, v: np.ndarray, adjoint: bool) -> np.ndarray:
    """Q v, or Q^H v when ``adjoint``, for the columns of v (N x k), with Q
    the basis of the factor of L.  Q = None is the grid's transform over
    its axes: the unitary inverse DFT on a periodic grid, so Q^H is the
    forward one, and on a Dirichlet grid the orthonormal DST-I, Q^H = Q."""
    Q = L._factor[0]
    if Q is not None:
        return (Q.conj().T if adjoint else Q) @ v
    g = L.grid
    u, axes = v.reshape(g.shape + v.shape[1:]), tuple(range(g.dim))
    if g.boundary == "dirichlet":
        import scipy.fft  # here: at module level it slows every CLI import
        return scipy.fft.dstn(u, type=1, axes=axes, norm="ortho").reshape(v.shape)
    dft = np.fft.fftn if adjoint else np.fft.ifftn
    return dft(u, axes=axes, norm="ortho").reshape(v.shape)


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
    nonincreasing, accumulates the bilinear gradient integrand and compares
    with both the energy budget E(0)/a0 and the closed constant (20/delta_p)
    (Lam/lam) ||f||_p ||g||_q, with slack ``_HEAT_TOL``; it refuses a closed
    constant of 0 (f or g vanishes on the grid) before any flow.  A, B, f
    and g must share one grid.  Each flow is propagated from t = 0 to all
    heat times in one product (see :func:`_propagator`), and the energy and
    bilinear integrands are evaluated on the trailing time axis.
    """
    gr = A.grid
    if not B.grid == f.grid == g.grid == gr:
        raise ParameterError("A, B, f and g must live on one grid")
    c = _bellman.pair_constants(A, B, p)
    if not c.delta_p > 0:
        raise ParameterError("joint p-ellipticity constant must be positive")
    params = _bellman.BellmanParams(p, c.delta)
    _refuse_flow(gr.size * _HEAT_TIMES.size)  # before the norms allocate
    closed = (20.0 / c.delta_p) * (c.Lam / c.lam) * lp_norm(f, p) * lp_norm(g, params.q)
    if not closed > 0:
        raise ParameterError("f or g vanishes on the grid: the closed bound is 0")
    LA = OperatorMatrix(A)
    LB = LA if B is A else OperatorMatrix(B)
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


def heat_flow_verify(A: MatrixField, p: float, seed: int) -> dict:
    """:func:`heat_flow_experiment` of (A, A), A a 1-D field, from a
    Gaussian f of random phase, drawn from ``seed``, and a Gaussian g.
    Raises VerificationError where the energy is not nonincreasing, the
    ratio exceeds 1 or the energy budget does not hold, in that order."""
    grid = A.grid
    if grid.dim != 1:
        raise ParameterError("heatflow needs a 1-D coefficient field")
    x, L = grid.axis(), grid.extent
    phase = np.random.default_rng(seed).uniform(0, 2 * np.pi)
    f = GridFunction(grid, np.exp(-x * x) * np.exp(1j * phase * np.sin(np.pi * x / L)))
    g = GridFunction(grid, np.exp(-0.5 * x * x) * (1 + 0.2 * np.cos(np.pi * x / L)))
    rep = heat_flow_experiment(A, A, f, g, p)
    if not rep["monotone"]:
        raise VerificationError("Bellman energy was not nonincreasing")
    if rep["ratio"] > 1.0:
        raise VerificationError(f"bilinear time integral exceeded the closed bound "
                                f"(ratio {rep['ratio']:.6g})")
    if not rep["budget_ok"]:
        raise VerificationError(f"bilinear time integral exceeded the energy budget "
                                f"E(0)/a0 (a0 = {rep['a0']:.6g})")
    return rep


def contractivity_probe(L: OperatorMatrix, p: float, t: float) -> float:
    """Largest observed ||e^{-tL} f||_p / ||f||_p over ``_PROBE_TRIALS``
    random starts, side by side as columns, each refined by ``_POWER_ITERS``
    nonlinear power-method steps x -> J_q(e^{-tL^H} J_p(e^{-tL} x)), normalized,
    J_s(y) = |y|^{s-2} y, both flows through :func:`_propagator` (a transform
    factor needs no N x N array).  Evidence only: a lower bound on the norm."""
    if not 1 < p < math.inf:
        raise ParameterError("exponent p must be finite and satisfy p > 1")
    r = np.random.default_rng(_PROBE_SEED).standard_normal((_PROBE_TRIALS, 2, L.grid.size))
    x = (r[:, 0] + 1j * r[:, 1]).T
    x /= np.linalg.norm(x, axis=0)

    def dual(y, s):
        ay = np.abs(y)
        return np.where(ay == 0, 0.0, ay ** (s - 2.0)) * y

    y = _propagator(L, [t], x)[:, :, 0]
    for _ in range(_POWER_ITERS):
        x = dual(_propagator(L, [t], dual(y, p), adjoint=True)[:, :, 0], p / (p - 1.0))
        nx = np.linalg.norm(x, axis=0)
        x /= np.where(nx == 0, 1.0, nx)  # a start that reaches 0 stays 0
        y = _propagator(L, [t], x)[:, :, 0]
    sx, sy = (np.sum(np.abs(u) ** p, axis=0) for u in (x, y))
    return float(max((sy[sx > 0] / sx[sx > 0]) ** (1.0 / p), default=0.0))
