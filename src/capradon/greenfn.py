"""Periodic half-plane kernel and the interpolated electrode potential.

The kernel is the electrostatic potential of a unit line charge repeated
with period 1 along the array direction, written in pitch units (x1 along
the electrode plane, x2 height above it).  An (order+1)-point interpolation
system combines rescaled copies of the kernel into an approximate potential
that is 1 on the driven electrode and 0 on its neighbours.  Downstream
modules form sensitivity weights from products of its gradient, so
`eval_potential` evaluates only the gradient; the potential's value is
needed only for the interpolation system, through `eval_green`.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularPointError",
    "SingularMatrixError",
    "GreenCoefficients",
    "eval_green",
    "build_system",
    "solve_coefficients",
    "potential_coefficients",
    "eval_potential",
]

# A system whose 1-norm condition number reaches 1 / PIVOT_RTOL is
# numerically singular and the coefficients would be garbage.
PIVOT_RTOL = 1e-14


class SingularPointError(ValueError):
    """Kernel evaluated on a lattice singularity (x1 integer, x2 = 0)."""


class SingularMatrixError(ValueError):
    """Interpolation system is numerically singular."""


def _lattice_singular(x1, x2):
    return (x2 == 0.0) & (x1 == np.rint(x1))


def eval_green(x1, x2):
    """Evaluate the periodic kernel G(x1, x2).

    G = -log(sinh^2(pi*x2) + sin^2(pi*x1)) / (4*pi) + |x2| / 2

    1-periodic and even in x1, even in x2, harmonic away from the lattice
    points (n, 0).  Accepts scalars or broadcastable arrays.  Raises
    SingularPointError if any point sits on a lattice singularity.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any(_lattice_singular(x1, x2)):
        raise SingularPointError("kernel is singular at (integer, 0) points")
    base = np.sinh(np.pi * x2) ** 2 + np.sin(np.pi * x1) ** 2
    out = -np.log(base) / (4.0 * np.pi) + 0.5 * np.abs(x2)
    return out.item() if out.ndim == 0 else out


def build_system(order, eps0):
    """Assemble the dense interpolation system for the electrode potential.

    Row i (0-based) pins the potential at electrode position x1 = i, sampled
    a small height eps0 above the plane; column j holds the kernel copy
    rescaled by 1/(j+1), evaluated consistently at (i/(j+1), eps0/(j+1)).
    Returns (matrix, rhs) with rhs = (1, 0, ..., 0): unit potential on the
    driven electrode, zero on the next `order` electrodes.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if eps0 <= 0.0:
        raise ValueError(f"eps0 must be positive, got {eps0}")
    i = np.arange(order + 1, dtype=float)[:, None]
    j = np.arange(1, order + 2, dtype=float)[None, :]
    # an eps0 far out of range gives inf or NaN; the solve's guard rejects it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        matrix = eval_green(i / j, eps0 / j)
    rhs = np.zeros(order + 1)
    rhs[0] = 1.0
    return matrix, rhs


def solve_coefficients(matrix, rhs):
    """Solve the interpolation system with LAPACK under a condition guard.

    Returns (alpha, residual) where residual = max|matrix @ alpha - rhs|.
    Raises SingularMatrixError unless cond_1(matrix) * PIVOT_RTOL < 1
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 15); the
    1-norm form costs an inverse, where the default 2-norm form takes an SVD.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError("matrix must be square and match rhs length")
    cond = np.linalg.cond(a, 1)
    if not cond * PIVOT_RTOL < 1:
        raise SingularMatrixError(f"1-norm condition number {cond:.3e}")
    alpha = np.linalg.solve(a, b)
    residual = float(np.max(np.abs(a @ alpha - b)))
    return alpha, residual


@dataclass(frozen=True)
class GreenCoefficients:
    """Solved kernel weights defining the approximate electrode potential."""

    alpha: np.ndarray  # kernel weights, length order + 1
    eps0: float        # interpolation height above the plane, pitch units
    residual: float    # max-norm residual of the solved system

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if self.alpha.ndim != 1 or self.alpha.size < 2:
            raise ValueError("alpha must be a 1-d vector of length >= 2")

    @property
    def order(self):
        return self.alpha.size - 1


def potential_coefficients(order=16, eps0=0.1):
    """Build and solve the interpolation system; returns GreenCoefficients."""
    matrix, rhs = build_system(order, eps0)
    alpha, residual = solve_coefficients(matrix, rhs)
    return GreenCoefficients(alpha=alpha, eps0=eps0, residual=residual)


def eval_potential(coeffs, x1, x2):
    """Gradient (d/dx1, d/dx2) of the approximate electrode potential.

    f(x1, x2) = sum_k alpha_k * G(s*x1, s*x2) with s = 1/(k+1).  Only the
    gradient is evaluated, never f itself: per term, with
    inv = 1 / (sinh^2(pi*s*x2) + sin^2(pi*s*x1)),

        d/dx1 -= (alpha_k*s/4) * sin(2*pi*s*x1) * inv
        d/dx2 -= (alpha_k*s/4) * sinh(2*pi*s*x2) * inv

    and sign(x2)/2 * sum_k alpha_k*s is added once.  The sines depend on x1
    alone and the sinhs on x2 alone, so on a tensor grid (x1 a row, x2 a
    column) only the add, the reciprocal and the two products run on the
    2-D grid.  Returns (g1, g2), broadcast like the inputs.  Raises
    SingularPointError if any x2 is 0, where |x2|/2 has a kink.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any(x2 == 0.0):
        raise SingularPointError("gradient undefined on the plane x2 = 0")
    g1 = np.zeros(np.broadcast(x1, x2).shape)
    g2 = np.zeros_like(g1)
    scales = 1.0 / np.arange(1, coeffs.alpha.size + 1)
    for ak, s in zip(coeffs.alpha, scales):
        inv = 1.0 / (np.sinh(np.pi * s * x2) ** 2 + np.sin(np.pi * s * x1) ** 2)
        c = 0.25 * ak * s
        g1 -= (c * np.sin(2.0 * np.pi * s * x1)) * inv
        g2 -= (c * np.sinh(2.0 * np.pi * s * x2)) * inv
    g2 += 0.5 * np.dot(coeffs.alpha, scales) * np.sign(x2)
    if g1.ndim == 0:
        return g1.item(), g2.item()
    return g1, g2
