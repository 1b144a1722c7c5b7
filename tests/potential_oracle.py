"""Point-wise kernel gradient and interpolated potential, an oracle for
`greenfn.eval_potential`.

The program evaluates only the potential's gradient, with the sines and
sinhs of each kernel term taken once per grid column and row.  This
oracle evaluates the kernel term by term at every point, value included:
the value through `eval_green` (a log), the gradient through the explicit
derivative of the kernel

    dG/dx1 = -sin(2*pi*x1) / (4*b),
    dG/dx2 = -sinh(2*pi*x2) / (4*b) + sign(x2)/2,
    b = sinh^2(pi*x2) + sin^2(pi*x1),

with the 1/(k+1) chain-rule factor per rescaled copy.
"""

import numpy as np

from capradon.greenfn import SingularPointError, eval_green


def green_gradient(x1, x2):
    """Gradient (dG/dx1, dG/dx2) of the periodic kernel.

    Rejects x2 = 0 everywhere: the |x2|/2 term has a kink on the plane.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if np.any(x2 == 0.0):
        raise SingularPointError("gradient undefined on the plane x2 = 0")
    base = np.sinh(np.pi * x2) ** 2 + np.sin(np.pi * x1) ** 2
    g1 = -np.sin(2.0 * np.pi * x1) / (4.0 * base)
    g2 = -np.sinh(2.0 * np.pi * x2) / (4.0 * base) + 0.5 * np.sign(x2)
    if g1.ndim == 0:
        return g1.item(), g2.item()
    return g1, g2


def potential(coeffs, x1, x2):
    """Approximate electrode potential and its gradient, point by point.

    f(x1, x2) = sum_k alpha_k * G(x1/(k+1), x2/(k+1)).  Returns
    (value, (d/dx1, d/dx2)); all three broadcast like the inputs.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    value = np.zeros(np.broadcast(x1, x2).shape)
    g1 = np.zeros_like(value)
    g2 = np.zeros_like(value)
    for k, ak in enumerate(coeffs.alpha):
        scale = 1.0 / (k + 1)
        value += ak * eval_green(x1 * scale, x2 * scale)
        d1, d2 = green_gradient(x1 * scale, x2 * scale)
        g1 += ak * scale * d1
        g2 += ak * scale * d2
    if value.ndim == 0:
        return value.item(), (g1.item(), g2.item())
    return value, (g1, g2)
