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

The ``check_*`` functions probe the standing hypotheses on finite sample
grids; the conditions are universally quantified over the real line, so a
dense grid augmented with every breakpoint (and breakpoints shifted by a tiny
offset) is used to cover the piecewise structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Interval",
    "Potential",
    "CheckReport",
    "GrowthReport",
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
    "default_grid",
    "pair_grid",
    "check_growth",
    "check_sign_condition",
    "check_strict_condition",
    "check_scaled_sign_condition",
]


@dataclass(frozen=True)
class Interval:
    """Closed interval; the scalar Clarke subdifferential is one of these."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"interval bounds out of order: [{self.lo}, {self.hi}]")


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
    the subdifferential.  ``m_j`` and ``convex`` follow from the table too.
    ``prox`` is a closed form in each class.
    """

    id: str = "custom"
    c0: float | None = None  # growth bound |dj(r)| <= c0 + c1 |r|
    c1: float | None = None

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

    def concave_kinks(self) -> tuple[float, ...]:
        """The kinks where the left-hand derivative exceeds the right-hand one.

        There the subgradient jumps down, so no relaxed-monotonicity
        constant is finite.
        """
        kinks = self.breakpoints()
        return tuple(
            r for i, r in enumerate(kinks) if self._piece(i, r)[1] > self._piece(i + 1, r)[1]
        )

    @property
    def m_j(self) -> float:
        """Relaxed-monotonicity constant: the least ``m >= 0`` making ``j + m r^2/2`` convex.

        For a piecewise-C2 ``j`` that sum is convex exactly when no kink is
        concave and no piece curves below ``-m``.  So the constant is ``inf``
        with a concave kink, and otherwise the largest negative curvature on
        ``default_grid``, each kink taken on both of its pieces.  The sample
        is exact when each piece's curvature is constant or extreme at the
        piece's ends, as for every built-in.
        """
        if self.concave_kinks():
            return math.inf
        kinks = np.array(self.breakpoints())
        grid = default_grid(self)
        r = np.concatenate([grid, kinks])
        piece = np.concatenate([kinks.searchsorted(grid, side="right"), np.arange(len(kinks))])
        return max(0.0, -float(self._on_pieces(piece, r, 2).min()))

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

    def subdiff(self, r: float) -> Interval:
        lo, hi = self.subdiff_bounds(np.asarray([r], dtype=float))
        return Interval(float(lo[0]), float(hi[0]))

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

    def __init__(self, b: float = 0.0):
        super().__init__(b)
        self.c0 = 1.0 + 2.0 * abs(self.b)
        self.c1 = 2.0

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
        self.c0 = max(self.k1, self.k2) * abs(self.b)
        self.c1 = max(self.k1, self.k2)
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

    def __init__(self, b: float = 0.0):
        super().__init__(b)
        self.c0 = abs(self.b)
        self.c1 = 1.0

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
        self.c0 = max(abs(self.m1), self.m2)
        self.c1 = 0.0

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
    c0 = 1.0
    c1 = 0.0

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
    """Outcome of a sampled hypothesis check.

    ``worst_margin`` is the largest violation of the asserted inequality over
    the grid (nonpositive when satisfied), attained at ``worst_point``.
    """

    name: str
    passed: bool
    worst_margin: float
    worst_point: tuple[float, ...]
    details: str = ""


@dataclass(frozen=True)
class GrowthReport:
    """Growth-condition verdict plus grid-fitted constants."""

    passed: bool
    worst_margin: float
    worst_r: float
    used_c0: float | None
    used_c1: float | None
    fitted_c0: float
    fitted_c1: float
    details: str = ""


def default_grid(p: Potential) -> np.ndarray:
    """2001 points on ``b -+ 10``, plus each breakpoint and its copies ``1e-9`` either side."""
    base = np.linspace(p.b - 10.0, p.b + 10.0, 2001)
    extra = []
    for bp in p.breakpoints():
        extra.extend((bp, bp - 1e-9, bp + 1e-9))
    if extra:
        base = np.concatenate([base, np.asarray(extra)])
    return np.unique(base)


def pair_grid(p: Potential) -> np.ndarray:
    """321 points on ``b -+ 10`` for quadratic-cost pair scans, breakpoints included."""
    base = np.linspace(p.b - 10.0, p.b + 10.0, 321)
    extra = []
    for bp in p.breakpoints():
        for off in (0.0, -1e-9, 1e-9, -1e-4, 1e-4, -1e-2, 1e-2):
            extra.append(bp + off)
    if extra:
        base = np.concatenate([base, np.asarray(extra)])
    return np.unique(base)


def _magnitude(p: Potential, grid: np.ndarray) -> np.ndarray:
    lo, hi = p.subdiff_bounds(grid)
    return np.maximum(np.abs(lo), np.abs(hi))


def check_growth(
    p: Potential,
    grid: np.ndarray | None = None,
    c0: float | None = None,
    c1: float | None = None,
) -> GrowthReport:
    """Check ``|dj(r)| <= c0 + c1 |r|`` on the grid and fit tight constants.

    Uses the potential's declared constants unless overrides are given.  A
    potential without declared constants (superlinear growth) fails, with
    grid-fitted constants reported for reference.
    """
    if grid is None:
        grid = default_grid(p)
    mag = _magnitude(p, grid)
    absr = np.abs(grid)

    slope_fit = 0.0
    if len(grid) > 1 and np.ptp(absr) > 0.0:
        slope_fit = max(0.0, float(np.polyfit(absr, mag, 1)[0]))
    fitted_c1 = slope_fit
    fitted_c0 = float(np.max(mag - fitted_c1 * absr))

    use_c0 = c0 if c0 is not None else p.c0
    use_c1 = c1 if c1 is not None else p.c1
    if use_c0 is None or use_c1 is None:
        return GrowthReport(
            passed=False,
            worst_margin=float("inf"),
            worst_r=float(grid[int(np.argmax(mag))]),
            used_c0=None,
            used_c1=None,
            fitted_c0=fitted_c0,
            fitted_c1=fitted_c1,
            details="no linear growth constants declared",
        )

    margins = mag - (use_c0 + use_c1 * absr)
    worst = int(np.argmax(margins))
    scale = 1.0 + abs(use_c0) + abs(use_c1) * float(absr.max(initial=0.0))
    return GrowthReport(
        passed=bool(margins[worst] <= 1e-12 * scale),
        worst_margin=float(margins[worst]),
        worst_r=float(grid[worst]),
        used_c0=float(use_c0),
        used_c1=float(use_c1),
        fitted_c0=fitted_c0,
        fitted_c1=fitted_c1,
    )


def check_sign_condition(
    p: Potential, grid: np.ndarray | None = None, slack: float = 1e-14
) -> CheckReport:
    """Check the anchor sign condition ``j0(r; b-r) <= 0`` on the grid."""
    if grid is None:
        grid = default_grid(p)
    vals = p.j0(grid, p.b - grid)
    worst = int(np.argmax(vals))
    return CheckReport(
        name="sign_condition",
        passed=bool(vals[worst] <= slack),
        worst_margin=float(vals[worst]),
        worst_point=(float(grid[worst]),),
    )


def check_strict_condition(p: Potential, grid: np.ndarray | None = None) -> CheckReport:
    """Check that ``j0(r; b-r)`` vanishes only at the anchor itself.

    Asserts strict negativity at every grid point different from ``b``; the
    anchor point is excluded by construction.
    """
    if grid is None:
        grid = default_grid(p)
    mask = grid != p.b
    pts = grid[mask]
    if len(pts) == 0:
        return CheckReport("strict_condition", True, -np.inf, (p.b,), "grid held only the anchor")
    vals = p.j0(pts, p.b - pts)
    worst = int(np.argmax(vals))
    return CheckReport(
        name="strict_condition",
        passed=bool(vals[worst] < 0.0),
        worst_margin=float(vals[worst]),
        worst_point=(float(pts[worst]),),
    )


def check_scaled_sign_condition(
    p: Potential,
    grid: np.ndarray | None = None,
    c_values: tuple[float, ...] = (1.0, 2.0, 10.0, 100.0),
    slack: float = 1e-10,
) -> CheckReport:
    """Pairwise sign condition with scaling factors, gating coefficient monotonicity.

    Checks ``j0(r; -(r-s)+) + c * j0(s; (r-s)+) <= 0`` for every scale
    ``c >= 1``.  The ``c = 1`` instance is checked on all grid pairs (it is
    the convexity-type test); the ``c > 1`` instances are checked on pairs
    with both points at or below the anchor, the range where solutions of the
    comparison theory live, since any potential whose subgradient is positive
    somewhere violates the unrestricted condition for large ``c``.
    """
    if grid is None:
        grid = pair_grid(p)
    if any(c < 1.0 for c in c_values):
        raise ValueError("all scale factors must be >= 1")
    lo, hi = p.subdiff_bounds(grid)
    r = grid[:, None]
    s = grid[None, :]
    t = r - s  # only t > 0 contributes
    pos = t > 0.0
    below = (r <= p.b) & (s <= p.b)

    worst_margin = -np.inf
    worst_point = (float(p.b), float(p.b), 1.0)
    for c in sorted(set(float(c) for c in c_values)):
        # for t > 0: j0(r; -t) = -t*lo(r),  j0(s; t) = t*hi(s)
        term = t * (c * hi[None, :] - lo[:, None])
        domain = pos if c == 1.0 else (pos & below)
        masked = np.where(domain, term, -np.inf)
        idx = np.unravel_index(int(np.argmax(masked)), masked.shape)
        if masked[idx] > worst_margin:
            worst_margin = float(masked[idx])
            worst_point = (float(grid[idx[0]]), float(grid[idx[1]]), c)
    return CheckReport(
        name="scaled_sign_condition",
        passed=bool(worst_margin <= slack),
        worst_margin=worst_margin,
        worst_point=worst_point,
    )
