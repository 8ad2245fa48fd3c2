"""Executable superpotentials for the multivalued exchange boundary law.

A superpotential ``j`` is a locally Lipschitz scalar function whose Clarke
subdifferential drives the boundary condition ``-du/dn in alpha*dj(u)`` on
the exchange portion G3.  For scalar functions the subdifferential at a point
is a closed interval of limiting slopes, and the generalized directional
derivative satisfies the max formula

    j0(r; s) = max{ zeta * s : zeta in dj(r) }.

Every built-in is piecewise smooth, and its sorted kinks and smooth pieces
give its value, its curvature and its subdifferential: for a piecewise-C1
function of one variable that is the interval between the one-sided
derivatives (Clarke, *Optimization and Nonsmooth Analysis*, 1983).

Built-ins (all anchored at a datum ``b``):

``exp_quadratic``
    quadratic well left of the anchor, saturating exponential right of it;
    nonconvex, relaxed-monotone with constant 1.
``min_quadratics``
    pointwise minimum of two convex parabolas with stationary point at the
    anchor; nonconvex when the graphs cross.
``quadratic``
    ``(r-b)^2 / 2``; the smooth law reproducing the linear Robin condition.
``truncated_quadratic``
    quadratic well with slopes clamped to ``m1`` and ``m2`` outside a band
    of radius ``r0``; convex with a globally bounded subgradient.
``abs``
    ``|r-b|``; convex kink at the anchor.

Extras without hypothesis guarantees: ``tresca`` (``|r|``, ``abs`` with its
kink at 0), ``quintic_ramp`` (one-sided quintic), ``power_ramp`` (one-sided
9/4 power).

The ``check_*`` functions decide the standing hypotheses on the whole real
line from ``Potential.piece_ends``.  Every built-in has one curvature sign
on each smooth piece, so each piece's derivative is monotone and its
extremes are its end values (limits at an infinite end); each verdict is a
finite comparison of those values, with no sample and no tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Potential",
    "CheckReport",
    "ExpQuadraticPotential",
    "MinQuadraticsPotential",
    "QuadraticPotential",
    "TruncatedQuadraticPotential",
    "AbsPotential",
    "TrescaPotential",
    "QuinticRampPotential",
    "PowerRampPotential",
    "UnknownPotentialError",
    "make_potential",
    "potential_ids",
    "check_growth",
    "check_sign_condition",
    "check_strict_condition",
    "check_scaled_sign_condition",
]


def _root_from_above(h, dh, x: float) -> float:
    """Largest root of a convex ``h`` by Newton from a point ``x`` right of it.

    Convexity makes the iterates decrease monotonically onto the root, so the
    loop ends when a step no longer moves left.
    """
    for _ in range(100):
        hx = h(x)
        if hx <= 0.0:
            break
        step = x - hx / dh(x)
        if step >= x:
            break
        x = step
    return x


class Potential:
    """Base class: a piecewise-smooth ``j`` given by its kinks and smooth pieces.

    A built-in states its sorted kinks once, in ``breakpoints``, and the
    value, derivative and curvature of its ``i``-th smooth piece (the one
    between kinks ``i-1`` and ``i``) in ``_piece(i, r)``.  Everything else
    follows from these two.  ``value_array`` evaluates the piece holding
    ``r``, the right-hand one on a kink.  ``subdiff_bounds`` is the Clarke
    subdifferential of a piecewise-C1 function of one variable: the interval
    between the left-hand and right-hand piece derivatives, a single point
    off the kinks.  ``slope`` is the curvature of the piece holding ``r``
    and 0 on a kink; the solver's Newton step uses it and it never affects
    the subdifferential.  ``piece_ends``, ``m_j`` and ``convex`` follow from
    the table too.  ``prox`` is a closed form in each class.
    """

    id: str = "custom"

    def __init__(self, b: float = 0.0):
        self.b = float(b)

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def params(self) -> dict[str, float]:
        return {}

    def _piece(self, i: int, r):
        """``(value, derivative, curvature)`` of the ``i``-th smooth piece at ``r``."""
        raise NotImplementedError

    def _on_pieces(self, piece: np.ndarray, r: np.ndarray, k: int) -> np.ndarray:
        """Entry ``k`` of ``_piece(piece[m], r[m])`` at every ``m``."""
        out = np.empty_like(r)
        for i in range(len(self.breakpoints()) + 1):
            at = piece == i
            if np.count_nonzero(at):
                out[at] = self._piece(i, r[at])[k]
        return out

    # -- derived operations --------------------------------------------------

    def value_array(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return self._on_pieces(np.array(self.breakpoints()).searchsorted(r, side="right"), r, 0)

    def subdiff_bounds(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = np.asarray(r, dtype=float)
        kinks = np.array(self.breakpoints())
        left, right = kinks.searchsorted(r, side="left"), kinks.searchsorted(r, side="right")
        lo = self._on_pieces(right, r, 1)
        hi = lo.copy()
        on = left != right  # on a kink the left-hand piece's slope joins in
        if np.count_nonzero(on):
            slopes = self._on_pieces(left[on], r[on], 1)
            lo[on], hi[on] = np.minimum(slopes, lo[on]), np.maximum(slopes, hi[on])
        return lo, hi

    def piece_ends(self, cuts: tuple[float, ...] = ()) -> list[tuple[float, ...]]:
        """Each smooth piece, split at the ``cuts`` inside it, as ``(x0, x1, d0, d1, k0, k1)``.

        ``x0 < x1`` are the ends, left to right, and ``d`` and ``k`` the
        piece's derivative and curvature there; an infinite end gives the
        limits.  The first row starts at ``-inf`` and the last ends at ``inf``.
        """
        edges = (-math.inf, *self.breakpoints(), math.inf)
        rows = []
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
            xs = (lo, *sorted(c for c in cuts if lo < c < hi), hi)
            for x0, x1 in zip(xs, xs[1:]):
                (_, d0, k0), (_, d1, k1) = self._piece(i, x0), self._piece(i, x1)
                rows.append((x0, x1, float(d0), float(d1), float(k0), float(k1)))
        return rows

    def concave_kinks(self) -> tuple[float, ...]:
        """The kinks where the left-hand derivative exceeds the right-hand one.

        There the subgradient jumps down, so no relaxed-monotonicity
        constant is finite.
        """
        rows = self.piece_ends()
        return tuple(left[1] for left, right in zip(rows, rows[1:]) if left[3] > right[2])

    @functools.cached_property
    def m_j(self) -> float:
        """Relaxed-monotonicity constant: the least ``m >= 0`` making ``j + m r^2/2`` convex.

        For a piecewise-C2 ``j`` that sum is convex exactly when no kink is
        concave and no piece curves below ``-m``.  So the constant is ``inf``
        with a concave kink, and otherwise the most negative curvature at a
        piece end, which is exact when each piece's curvature is extreme at
        its ends, as for every built-in.  It is derived once per instance.
        """
        if self.concave_kinks():
            return math.inf
        return max(0.0, -min(k for row in self.piece_ends() for k in row[4:]))

    @property
    def convex(self) -> bool:
        return self.m_j == 0.0

    def slope(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        kinks = np.array(self.breakpoints())
        left, right = kinks.searchsorted(r, side="left"), kinks.searchsorted(r, side="right")
        out = self._on_pieces(right, r, 2)
        out[left != right] = 0.0
        return out

    def value(self, r: float) -> float:
        return float(self.value_array(np.asarray([r], dtype=float))[0])

    def subdiff(self, r: float) -> tuple[float, float]:
        lo, hi = self.subdiff_bounds(np.asarray([r], dtype=float))
        return float(lo[0]), float(hi[0])

    def j0(self, r, s):
        """Generalized directional derivative via the max formula."""
        r_arr = np.asarray(r, dtype=float)
        s_arr = np.asarray(s, dtype=float)
        lo, hi = self.subdiff_bounds(np.atleast_1d(r_arr))
        lo = lo.reshape(r_arr.shape) if r_arr.shape else lo[0]
        hi = hi.reshape(r_arr.shape) if r_arr.shape else hi[0]
        out = np.maximum(lo * s_arr, hi * s_arr)
        if np.ndim(out) == 0:
            return float(out)
        return out

    def prox(self, z: float, tau: float) -> float:
        """Global minimizer of ``1/2 (t-z)^2 + tau j(t)`` over the real line.

        A kink is a candidate only where both one-sided derivatives of this
        energy show a local minimum, so a minimizer always satisfies the
        inclusion ``z - t in tau dj(t)``, convex ``j`` or not.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        extras = "".join(f", {k}={v:g}" for k, v in self.params().items())
        return f"{type(self).__name__}(b={self.b:g}{extras})"


class ExpQuadraticPotential(Potential):
    """Quadratic well below the anchor, saturating exponential above it.

    ``j(r) = (r-b)^2`` for ``r < b`` and ``1 - exp(-(r-b))`` for ``r >= b``.
    The subdifferential jumps from 0 to the full interval [0, 1] at the
    anchor, making the law nonmonotone; the relaxed-monotonicity constant
    is exactly 1 (adding ``r^2/2`` makes the subdifferential monotone).
    """

    id = "exp_quadratic"

    def breakpoints(self) -> tuple[float, ...]:
        return (self.b,)

    def _piece(self, i: int, r):
        d = r - self.b
        if i == 0:
            return d**2, 2.0 * d, 2.0
        e = np.exp(-d)
        return -np.expm1(-d), e, -e

    def prox(self, z: float, tau: float) -> float:
        b, w = self.b, z - self.b
        if w < 0.0:  # left of the anchor only the quadratic branch is stationary
            return min((z + 2.0 * tau * b) / (1.0 + 2.0 * tau), b)
        # the one-sided slopes 0 and 1 hold the kink when 0 <= w <= tau
        candidates = [b] if w <= tau else []
        # d - w + tau exp(-d) is convex in d; its larger root is the exp
        # branch's local minimizer, and it exists when tau exp(-w) <= 1/e
        if tau * math.exp(-w) <= math.exp(-1.0):
            d = _root_from_above(
                lambda d: d - w + tau * math.exp(-d), lambda d: 1.0 - tau * math.exp(-d), w
            )
            if d > 0.0:
                candidates.append(b + d)
        return min(candidates, key=lambda t: 0.5 * (t - z) ** 2 + tau * self.value(t))


class MinQuadraticsPotential(Potential):
    """Pointwise minimum of two convex parabolas stationary at the anchor.

    ``j(r) = min(k1/2 (r-b)^2 + c1, k2/2 (r-b)^2 + c2)``.  When the graphs
    cross, the steeper parabola is the piece between the two crossings and
    the flatter one the pieces outside them, so the subdifferential at a
    crossing is the hull of the two slopes.  With two crossings the function
    is nonconvex and has no finite relaxed-monotonicity constant (the
    subgradient jumps downward); otherwise the parabola that is lower
    everywhere is the only piece.
    """

    id = "min_quadratics"

    def __init__(self, b: float = 0.0, k1: float = 1.0, c1: float = 0.0, k2: float = 3.0, c2: float = -1.0):
        super().__init__(b)
        if k1 <= 0.0 or k2 <= 0.0:
            raise ValueError("both parabolas must be strictly convex (k1, k2 > 0)")
        self.k1, self.k2 = float(k1), float(k2)
        self.off1, self.off2 = float(c1), float(c2)
        # the flatter parabola (the lower one, on equal curvature) wins far out
        self._outer, self._inner = sorted([(self.k1, self.off1), (self.k2, self.off2)])
        self._rho = None
        if self.k1 != self.k2:
            rho2 = 2.0 * (self.off2 - self.off1) / (self.k1 - self.k2)
            self._rho = float(np.sqrt(rho2)) if rho2 > 0.0 else None

    def params(self) -> dict[str, float]:
        return {"k1": self.k1, "c1": self.off1, "k2": self.k2, "c2": self.off2}

    def breakpoints(self) -> tuple[float, ...]:
        if self._rho is None:
            return ()
        return (self.b - self._rho, self.b + self._rho)

    def _piece(self, i: int, r):
        k, c = self._inner if i == 1 else self._outer
        d = r - self.b
        return 0.5 * k * d**2 + c, k * d, k

    def prox(self, z: float, tau: float) -> float:
        # min over t of 1/2 (t-z)^2 + tau min(j1, j2) is the smaller of the
        # two parabolas' own minima; the crossings are concave kinks and
        # never minimize
        k = np.array([self.k1, self.k2])
        t = (z + tau * k * self.b) / (1.0 + tau * k)
        j = 0.5 * k * (t - self.b) ** 2 + np.array([self.off1, self.off2])
        return float(t[np.argmin(0.5 * (t - z) ** 2 + tau * j)])


class QuadraticPotential(Potential):
    """``(r-b)^2 / 2``: the smooth law of the linear Robin condition."""

    id = "quadratic"

    def _piece(self, i: int, r):
        d = r - self.b
        return 0.5 * d**2, d, 1.0

    def prox(self, z: float, tau: float) -> float:
        return (z + tau * self.b) / (1.0 + tau)


class TruncatedQuadraticPotential(Potential):
    """Quadratic well with slopes clamped outside a band of radius ``r0``.

    Requires ``m1 <= -r0 < 0 < r0 <= m2``; the subgradient is globally
    bounded by ``max(|m1|, m2)``, so the growth condition holds with a
    constant bound.
    """

    id = "truncated_quadratic"

    def __init__(self, b: float = 0.0, m1: float = -2.0, m2: float = 3.0, r0: float = 1.0):
        super().__init__(b)
        if not (m1 <= -r0 < 0.0 < r0 <= m2):
            raise ValueError(f"require m1 <= -r0 < 0 < r0 <= m2, got m1={m1}, m2={m2}, r0={r0}")
        self.m1, self.m2, self.r0 = float(m1), float(m2), float(r0)

    def params(self) -> dict[str, float]:
        return {"m1": self.m1, "m2": self.m2, "r0": self.r0}

    def breakpoints(self) -> tuple[float, ...]:
        return (self.b - self.r0, self.b + self.r0)

    def _piece(self, i: int, r):
        d = r - self.b
        if i == 1:
            return 0.5 * d**2, d, 1.0
        m, edge = (self.m1, -self.r0) if i == 0 else (self.m2, self.r0)
        return 0.5 * self.r0**2 + m * (d - edge), m, 0.0

    def prox(self, z: float, tau: float) -> float:
        b, r0, m1, m2 = self.b, self.r0, self.m1, self.m2
        if z < b - r0 + tau * m1:
            return z - tau * m1
        if z <= b - r0 - tau * r0:
            return b - r0
        if z < b + r0 + tau * r0:
            return (z + tau * b) / (1.0 + tau)
        if z <= b + r0 + tau * m2:
            return b + r0
        return z - tau * m2


class AbsPotential(Potential):
    """``|r - b|``: convex kink at the anchor with subdifferential [-1, 1]."""

    id = "abs"

    def breakpoints(self) -> tuple[float, ...]:
        return (self.b,)

    def _piece(self, i: int, r):
        return np.abs(r - self.breakpoints()[0]), (1.0 if i else -1.0), 0.0

    def prox(self, z: float, tau: float) -> float:
        kink = self.breakpoints()[0]
        if z - kink > tau:
            return z - tau
        if z - kink < -tau:
            return z + tau
        return kink


class TrescaPotential(AbsPotential):
    """``|r|`` regardless of the anchor; a friction-type flux potential.

    This is ``abs`` with its kink at 0.  The anchor ``b`` is kept only so the
    hypothesis checkers know which datum the boundary condition pairs it
    with; the sign condition generally fails for ``b != 0``.
    """

    id = "tresca"

    def breakpoints(self) -> tuple[float, ...]:
        return (0.0,)


class QuinticRampPotential(Potential):
    """One-sided quintic ``beta (r-c)^5`` for ``r >= c``, zero below.

    Continuously differentiable and convex, but the subgradient grows like
    the fourth power, so no linear growth constants exist.
    """

    id = "quintic_ramp"
    power = 5.0

    def __init__(self, b: float = 0.0, beta: float = 1.0, c: float = 0.0):
        super().__init__(b)
        if beta <= 0.0:
            raise ValueError("beta must be positive")
        self.beta = float(beta)
        self.c = float(c)

    def params(self) -> dict[str, float]:
        return {"beta": self.beta, "c": self.c}

    def breakpoints(self) -> tuple[float, ...]:
        return (self.c,)

    def _piece(self, i: int, r):
        if i == 0:
            return 0.0, 0.0, 0.0
        p, d, beta = self.power, r - self.c, self.beta
        return beta * d**p, p * beta * d ** (p - 1.0), p * (p - 1.0) * beta * d ** (p - 2.0)

    def prox(self, z: float, tau: float) -> float:
        p, w = self.power, z - self.c
        if w <= 0.0:
            return z
        a = p * tau * self.beta
        d = _root_from_above(
            lambda d: d + a * d ** (p - 1.0) - w,
            lambda d: 1.0 + (p - 1.0) * a * d ** (p - 2.0),
            min(w, (w / a) ** (1.0 / (p - 1.0))),
        )
        return self.c + d


class PowerRampPotential(QuinticRampPotential):
    """One-sided power law ``beta r^{9/4}`` for ``r >= 0``, zero below.

    The quintic ramp's law with power 9/4 and its kink at 0.
    """

    id = "power_ramp"
    power = 2.25

    def __init__(self, b: float = 0.0, beta: float = 1.0):
        super().__init__(b, beta)

    def params(self) -> dict[str, float]:
        return {"beta": self.beta}


_BUILTINS = (
    ExpQuadraticPotential,
    MinQuadraticsPotential,
    QuadraticPotential,
    TruncatedQuadraticPotential,
    AbsPotential,
)
_EXTRAS = (TrescaPotential, QuinticRampPotential, PowerRampPotential)
_REGISTRY = {cls.id: cls for cls in _BUILTINS + _EXTRAS}


class UnknownPotentialError(ValueError):
    def __init__(self, pid: str):
        ids = potential_ids()
        super().__init__(
            f"unknown potential {pid!r}; built-ins: {', '.join(ids[:5])}; extras: {', '.join(ids[5:])}"
        )
        self.available = ids


def potential_ids() -> tuple[str, ...]:
    return tuple(cls.id for cls in _BUILTINS + _EXTRAS)


def make_potential(pid: str, b: float = 0.0, **params: float) -> Potential:
    cls = _REGISTRY.get(pid)
    if cls is None:
        raise UnknownPotentialError(pid)
    return cls(b=b, **params)


# -- hypothesis checkers ------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Exact verdict of one hypothesis on ``j`` over the real line.

    ``worst_margin`` is the supremum of the quantity the hypothesis bounds
    above by 0, reached or approached at ``worst_point``; an infinite
    coordinate is a limit.  ``constants`` holds the growth bound's derived
    ``(c0, c1)`` and is empty for the other checks.
    """

    name: str
    passed: bool
    worst_margin: float
    worst_point: tuple[float, ...]
    constants: tuple[float, ...] = ()


def check_growth(p: Potential) -> CheckReport:
    """The growth bound ``|dj(r)| <= c0 + c1 |r|``, with constants from the piece ends.

    ``c1`` is the larger curvature limit at ``-inf`` and ``inf``: ``inf``,
    and a failed bound, when a piece grows superlinearly.  ``c0`` is the
    largest ``|dj(r)| - c1 |r|`` over the piece ends, with the pieces split
    at 0.  An infinite end adds its limit of ``|dj|`` when ``c1 = 0``, and
    nothing otherwise: a piece that grows like ``c1 |r|`` has constant
    curvature, as every built-in's does, so it peaks at its finite end.
    The constants are exact when ``|dj| - c1 |r|`` peaks at a piece end on
    every piece, which a test samples for each built-in.
    """
    rows = p.piece_ends((0.0,))
    c1 = max(abs(rows[0][4]), abs(rows[-1][5]))
    if math.isinf(c1):
        at = -math.inf if math.isinf(rows[0][4]) else math.inf
        return CheckReport("growth", False, math.inf, (at,), (math.inf, math.inf))
    c0, at = -math.inf, math.nan
    for x0, x1, d0, d1, _, _ in rows:
        for x, d in ((x0, d0), (x1, d1)):
            if math.isfinite(x):
                excess = abs(d) - c1 * abs(x)
            elif c1 == 0.0:
                excess = abs(d)
            else:
                continue
            if excess > c0:
                c0, at = excess, x
    passed = math.isfinite(c0)
    return CheckReport("growth", passed, 0.0 if passed else math.inf, (at,), (c0 + 0.0, c1))


def _slopes_toward_anchor(p: Potential) -> list[tuple[tuple[float, float], ...]]:
    """Each piece, split at ``b``, as its two ends ``(r, slope of j toward b)``.

    That slope is ``j0(r; b-r) / |b-r|``: ``dj`` left of ``b`` and ``-dj``
    right of it, monotone on each piece.
    """
    rows = []
    for x0, x1, d0, d1, _, _ in p.piece_ends((p.b,)):
        side = 1.0 if x1 <= p.b else -1.0
        rows.append(((x0, side * d0), (x1, side * d1)))
    return rows


def _steepest(rows) -> tuple[float, float]:
    """The piece end with the largest slope toward ``b``, the leftmost on a tie."""
    r, slope = max((end for row in rows for end in row), key=lambda end: end[1])
    return r, slope + 0.0


def check_sign_condition(p: Potential) -> CheckReport:
    """The anchor sign condition ``j0(r; b-r) <= 0``: no slope of ``j`` toward ``b`` is positive."""
    r, worst = _steepest(_slopes_toward_anchor(p))
    return CheckReport("sign_condition", worst <= 0.0, worst, (r,))


def check_strict_condition(p: Potential) -> CheckReport:
    """``j0(r; b-r) < 0`` at every ``r != b``: the slope toward ``b`` is negative off the anchor.

    A piece end that is a point other than ``b`` needs a negative slope.  A
    limit of 0, at ``b`` or at an infinite end, does not fail, since the
    monotone slope is negative inside when it is negative at the other end;
    a slope of 0 at both ends is 0 on the whole piece, which fails.
    """
    rows = _slopes_toward_anchor(p)

    def negative(r: float, slope: float) -> bool:
        return slope < 0.0 or (slope == 0.0 and (math.isinf(r) or r == p.b))

    passed = all(negative(*a) and negative(*z) and (a[1], z[1]) != (0.0, 0.0) for a, z in rows)
    r, worst = _steepest(rows)
    return CheckReport("strict_condition", passed, worst, (r,))


def check_scaled_sign_condition(p: Potential) -> CheckReport:
    """Pairwise sign condition with scaling factors, gating coefficient monotonicity.

    ``j0(r; -(r-s)) + c j0(s; r-s) <= 0`` for ``s < r`` says ``c hi(s) <=
    lo(r)``, with ``[lo, hi] = dj``.  The scale ``c = 1`` asks it on the
    whole line (a monotone subdifferential); the scales 2, 10 and 100 ask it
    for ``s < r <= b``, the range where solutions of the comparison theory
    live, since any potential whose subgradient is positive somewhere
    violates the unrestricted condition for large ``c``.  The margin is the
    supremum of ``c hi(s) - lo(r)``, found piece by piece from the left: the
    running maximum of ``dj`` left of a piece, times ``c``, against the
    piece's least ``dj``; and within a piece ``(c - 1) dj`` at its right end
    where ``dj`` increases, or ``c dj(x0) - dj(x1)`` where it decreases.
    ``worst_point`` is ``(s, r, c)``.
    """
    found = []
    for c in (1.0, 2.0, 10.0, 100.0):
        top = None  # the largest dj left of the current piece, and where
        for x0, x1, d0, d1, _, _ in p.piece_ends((p.b,)):
            if c > 1.0 and x0 >= p.b:  # right of b only r = b itself is in range
                found.append((c * top[0] - d0, (top[1], x0, c)))
                break
            low = min((d0, x0), (d1, x1))
            if top:
                found.append((c * top[0] - low[0], (top[1], low[1], c)))
            if d1 >= d0:
                found.append(((c - 1.0) * d1 if c > 1.0 else 0.0, (x1, x1, c)))
            else:
                found.append((c * d0 - d1, (x0, x1, c)))
            top = max(top or (d0, x0), (d0, x0), (d1, x1))
    worst, at = max(found, key=lambda margin: margin[0])
    return CheckReport("scaled_sign_condition", worst <= 0.0, worst + 0.0, at)
