"""Central finite-difference stencils with Richardson extrapolation.

Five-point central stencils: first and second derivatives are O(h^4),
the third derivative O(h^2).  ``richardson_derivative`` combines the
stencil at steps h and h/2, eliminating the leading error term (O(h^6)
for orders 1-2, O(h^4) for order 3).
"""

from __future__ import annotations


def central_derivative(f, x, order: int, h):
    """d^order f / dx^order at x via a 5-point central stencil."""
    if order == 1:
        return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
    if order == 2:
        return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
                + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)
    if order == 3:
        return (-f(x - 2 * h) + 2 * f(x - h) - 2 * f(x + h) + f(x + 2 * h)) / (2 * h ** 3)
    raise ValueError(f"order must be 1, 2 or 3, got {order!r}")


def richardson_derivative(f, x, order: int, h):
    """Richardson combination of the stencil at steps h and h/2."""
    coarse = central_derivative(f, x, order, h)
    fine = central_derivative(f, x, order, h / 2)
    if order in (1, 2):
        return (16 * fine - coarse) / 15
    return (4 * fine - coarse) / 3
