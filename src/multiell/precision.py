"""Explicit-precision arithmetic contexts.

Every computation in this package is parameterized by a PrecisionContext:
a fixed decimal working precision plus the two tolerances derived from it
(the quadrature absolute-error target and the identity pass tolerance).
There is no ambient global precision; each context owns a private mpmath
context, so instances are independent and safe to use from multiple
threads.  Real values are mpmath ``mpf`` objects, complex values ``mpc``;
both carry arbitrary-precision mantissas, and rounding happens at
operation time inside whichever context performs the operation.
"""

from __future__ import annotations

from mpmath.ctx_mp import MPContext
from mpmath.libmp import mpc_pos, mpf_pos

from .errors import DomainError

MIN_DIGITS = 30


class PrecisionContext:
    """Working precision (decimal digits) and derived tolerances.

    digits      -- decimal digits carried by every operation (>= 30)
    quad_target -- absolute-error target for quadrature: 10^-(digits-10)
    pass_tol    -- identity pass tolerance: 10^-(digits-15); may be
                   overridden (CLI --tol) but then no longer tracks digits
    mp          -- the private mpmath context (pi, sqrt, exp, ... live here)
    """

    __slots__ = ("digits", "mp", "quad_target", "pass_tol", "_boosted")

    def __init__(self, digits: int = 50, pass_tol=None):
        if not isinstance(digits, int) or digits < MIN_DIGITS:
            raise DomainError(f"digits must be an integer >= {MIN_DIGITS}, got {digits!r}")
        self.digits = digits
        mp = MPContext()
        mp.dps = digits
        self.mp = mp
        self.quad_target = mp.mpf(10) ** (-(digits - 10))
        try:
            self.pass_tol = mp.mpf(10) ** (15 - digits) if pass_tol is None else mp.mpf(pass_tol)
        except (TypeError, ValueError):
            raise DomainError(f"pass_tol must be a number, got {pass_tol!r}") from None
        if not self.pass_tol > self.quad_target:
            raise DomainError("pass_tol must exceed quad_target")
        self._boosted: dict[int, PrecisionContext] = {}

    def boosted(self, extra: int) -> "PrecisionContext":
        """Context with `extra` more digits, for internal guard precision."""
        ctx = self._boosted.get(extra)
        if ctx is None:
            ctx = PrecisionContext(self.digits + extra)
            self._boosted[extra] = ctx
        return ctx

    def reduce(self, value):
        """Round a value (mpf or mpc, possibly from another context) into this one.

        An mpf's or mpc's tuple is rounded directly, as +mp.convert rounds
        it but without convert's type checks.
        """
        mp = self.mp
        v = getattr(value, "_mpf_", None)
        if v is not None:
            return mp.make_mpf(mpf_pos(v, *mp._prec_rounding))
        v = getattr(value, "_mpc_", None)
        if v is not None:
            return mp.make_mpc(mpc_pos(v, *mp._prec_rounding))
        return +mp.convert(value)

    def __repr__(self):
        return f"PrecisionContext(digits={self.digits})"


def _finite(mp, value, name: str):
    """value converted into context mp; an infinite or nan value raises DomainError."""
    if not mp.isfinite(v := mp.convert(value)):
        raise DomainError(f"{name} requires a finite argument, got {v}")
    return v


def _real(mp, value, name: str):
    """_finite(mp, value, name), which must also be real: an mpc raises DomainError."""
    if not isinstance(v := _finite(mp, value, name), mp.mpf):
        raise DomainError(f"{name} requires a real argument, got {v}")
    return v


def _count(n, name: str) -> int:
    """n, which must be a nonnegative int (a term count or order), not a bool; else DomainError."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"{name} requires a nonnegative integer count, got {n!r}")
    return n


def _choice(table, key, name: str):
    """table[key]; a key the table lacks, or an unhashable one, raises DomainError."""
    try:
        return table[key]
    except (KeyError, TypeError):
        raise DomainError(f"{name}: {key!r} is not one of {', '.join(map(str, table))}") from None
