import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hviheat.potentials import (
    AbsPotential,
    ExpQuadraticPotential,
    MinQuadraticsPotential,
    Potential,
    PowerRampPotential,
    QuadraticPotential,
    QuinticRampPotential,
    TrescaPotential,
    TruncatedQuadraticPotential,
    UnknownPotentialError,
    check_growth,
    check_scaled_sign_condition,
    check_sign_condition,
    check_strict_condition,
    make_potential,
    potential_ids,
)

from oracles import (
    abs_table,
    default_grid,
    exp_quadratic_table,
    growth_reference,
    min_quadratics_table,
    prox_reference,
    quadratic_table,
    ramp_table,
    relaxed_monotonicity_reference,
    scaled_sign_condition_reference,
    sign_condition_reference,
    strict_condition_reference,
    tresca_table,
    truncated_quadratic_table,
)

ALL_IDS = potential_ids()
CONVEX_IDS = ("quadratic", "truncated_quadratic", "abs", "tresca", "quintic_ramp", "power_ramp")


def distance(iv: tuple[float, float], x: float) -> float:
    """Distance from ``x`` to the closed interval ``iv = (lo, hi)``."""
    return max(iv[0] - x, x - iv[1], 0.0)


class FlatPotential(Potential):
    """j identically zero: fails the strict sign condition everywhere."""

    id = "flat"

    def _piece(self, i, r):
        return 0.0, 0.0, 0.0


class ConcaveQuadratic(Potential):
    """j = -(r-b)^2 / 2: deliberately violates the anchor sign condition."""

    id = "concave_quadratic"

    def _piece(self, i, r):
        d = r - self.b
        return -0.5 * d**2, -d, -1.0


class SoftenedAbs(Potential):
    """j = |r-b| - k (r-b)^2 / 2: a convex kink between pieces of curvature -k.

    It states only its piece table and prox, so ``m_j`` and ``convex`` come
    from the base class.
    """

    def __init__(self, b=0.0, k=0.0):
        super().__init__(b)
        self.k = k

    def breakpoints(self):
        return (self.b,)

    def _piece(self, i, r):
        d, sign = r - self.b, (1.0 if i else -1.0)
        return sign * d - 0.5 * self.k * d**2, sign - self.k * d, -self.k

    def prox(self, z, tau):  # the energy is convex for tau k < 1
        w = z - self.b
        return self.b + np.sign(w) * max(abs(w) - tau, 0.0) / (1.0 - tau * self.k)


class JumpAtAnchor(Potential):
    """A smooth piece left of ``b``, then ``dj`` jumps up to about 1000 at ``b``.

    Left of ``b`` the derivative rises, ``dj = r - b + 5``, or falls,
    ``dj = 2 - exp(r - b)``.
    """

    def __init__(self, b=0.0, rising=True):
        super().__init__(b)
        self.rising = rising

    def breakpoints(self):
        return (self.b,)

    def _piece(self, i, r):
        d = r - self.b
        if i:
            return 1000.0 * d + 0.5 * d**2, 1000.0 + d, 1.0
        if self.rising:
            return 0.5 * d**2 + 5.0 * d, d + 5.0, 1.0
        return 2.0 * d - np.exp(d), 2.0 - np.exp(d), -np.exp(d)


# -- value / subdiff / j0 spot values ----------------------------------------


def test_quadratic_value():
    assert QuadraticPotential(b=2.0).value(5.0) == 4.5


def test_abs_value():
    assert AbsPotential(b=0.0).value(-3.0) == 3.0


def test_exp_quadratic_value_at_anchor():
    assert ExpQuadraticPotential(b=0.0).value(0.0) == 0.0


def test_exp_quadratic_interval_at_anchor():
    assert ExpQuadraticPotential(b=1.0).subdiff(1.0) == (0.0, 1.0)


def test_abs_interval_at_anchor():
    assert AbsPotential(b=0.5).subdiff(0.5) == (-1.0, 1.0)


def test_quadratic_singleton():
    assert QuadraticPotential(b=2.0).subdiff(5.0) == (3.0, 3.0)


def test_quadratic_j0():
    assert QuadraticPotential(b=2.0).j0(5.0, 1.0) == 3.0


def test_exp_quadratic_j0_below_anchor():
    assert ExpQuadraticPotential(b=0.0).j0(-1.0, 1.0) == -2.0


@pytest.mark.parametrize("pid", ALL_IDS)
def test_j0_vanishes_in_null_direction(pid):
    p = make_potential(pid, b=0.7)
    for r in (-2.0, 0.7, 1.3):
        assert p.j0(r, 0.0) == 0.0


# -- conformance with the printed piecewise tables ---------------------------


def assert_table_conformance(p, table):
    for r in default_grid(p):
        lo_exp, hi_exp, j0_exp = table(float(r))
        lo, hi = p.subdiff(float(r))
        assert lo == lo_exp, f"lo mismatch at r={r!r}: {lo} != {lo_exp}"
        assert hi == hi_exp, f"hi mismatch at r={r!r}: {hi} != {hi_exp}"
        got = p.j0(float(r), p.b - float(r))
        assert got == j0_exp, f"j0 mismatch at r={r!r}: {got} != {j0_exp}"


def test_exp_quadratic_table_conformance():
    b = 1.0
    assert_table_conformance(ExpQuadraticPotential(b=b), lambda r: exp_quadratic_table(b, r))


def test_quadratic_table_conformance():
    b = 2.0
    assert_table_conformance(QuadraticPotential(b=b), lambda r: quadratic_table(b, r))


def test_abs_table_conformance():
    b = -0.5
    assert_table_conformance(AbsPotential(b=b), lambda r: abs_table(b, r))


def test_truncated_quadratic_table_conformance():
    b, m1, m2, r0 = 1.0, -2.0, 3.0, 1.0
    assert_table_conformance(
        TruncatedQuadraticPotential(b=b, m1=m1, m2=m2, r0=r0),
        lambda r: truncated_quadratic_table(b, m1, m2, r0, r),
    )


def test_min_quadratics_table_conformance():
    b, k1, c1, k2, c2 = 1.0, 1.0, 0.0, 3.0, -1.0
    assert_table_conformance(
        MinQuadraticsPotential(b=b, k1=k1, c1=c1, k2=k2, c2=c2),
        lambda r: min_quadratics_table(b, k1, c1, k2, c2, r),
    )


def test_tresca_table_conformance():
    b = 0.75
    assert_table_conformance(TrescaPotential(b=b), lambda r: tresca_table(b, r))


def test_quintic_ramp_table_conformance():
    b, beta, c = 0.5, 2.0, 0.3
    assert_table_conformance(
        QuinticRampPotential(b=b, beta=beta, c=c), lambda r: ramp_table(b, beta, c, 5.0, r)
    )


def test_power_ramp_table_conformance():
    b, beta = -0.25, 0.5
    assert_table_conformance(
        PowerRampPotential(b=b, beta=beta), lambda r: ramp_table(b, beta, 0.0, 2.25, r)
    )


def test_min_quadratics_hull_at_crossings():
    p = MinQuadraticsPotential(b=1.0)  # parabolas cross at b -/+ 1
    assert p.subdiff(2.0) == (1.0, 3.0)
    assert p.subdiff(0.0) == (-3.0, -1.0)
    assert p.breakpoints() == (0.0, 2.0)


def test_min_quadratics_hull_at_inexact_crossings():
    # the parabolas cross at b -/+ sqrt(0.7), which no double represents; at
    # each crossing the subdifferential is still the hull of both slopes
    p = MinQuadraticsPotential(b=0.0, c2=-0.7)
    assert len(p.breakpoints()) == 2
    for bp in p.breakpoints():
        d = bp - p.b
        assert p.subdiff(bp) == (min(p.k1 * d, p.k2 * d), max(p.k1 * d, p.k2 * d))
    assert np.array_equal(p.slope(p.breakpoints()), [0.0, 0.0])


@pytest.mark.parametrize("pid", ALL_IDS)
def test_slope_is_the_curvature_off_the_kinks_and_zero_on_them(pid):
    p = make_potential(pid, b=0.4)
    h = 1e-3
    kinks = np.asarray(p.breakpoints())
    r = np.linspace(-2.5, 2.5, 41)
    r = r[np.all(np.abs(kinks[:, None] - r) > 2.0 * h, axis=0)]
    second = (p.value_array(r + h) - 2.0 * p.value_array(r) + p.value_array(r - h)) / h**2
    assert p.slope(r) == pytest.approx(second, rel=1e-5, abs=1e-5)
    assert np.array_equal(p.slope(kinks), np.zeros(len(kinks)))


def test_truncated_quadratic_rejects_bad_slopes():
    with pytest.raises(ValueError):
        TruncatedQuadraticPotential(m1=-0.5, m2=3.0, r0=1.0)


# -- structural properties of j0 ---------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    pid=st.sampled_from(ALL_IDS),
    r=st.floats(-30, 30),
    s=st.floats(-30, 30),
    lam=st.floats(0, 8),
)
def test_positive_homogeneity(pid, r, s, lam):
    p = make_potential(pid, b=0.5)
    lhs = p.j0(r, lam * s)
    rhs = lam * p.j0(r, s)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    pid=st.sampled_from(ALL_IDS),
    r=st.floats(-30, 30),
    s1=st.floats(-30, 30),
    s2=st.floats(-30, 30),
)
def test_subadditivity(pid, r, s1, s2):
    p = make_potential(pid, b=0.5)
    scale = 1.0 + abs(p.j0(r, s1)) + abs(p.j0(r, s2))
    assert p.j0(r, s1 + s2) <= p.j0(r, s1) + p.j0(r, s2) + 1e-12 * scale


def test_max_formula_consistency():
    rng = np.random.default_rng(17)
    for pid in ALL_IDS:
        p = make_potential(pid, b=0.3)
        r = rng.uniform(-20, 20, 10_000)
        s = rng.uniform(-20, 20, 10_000)
        lo, hi = p.subdiff_bounds(r)
        expected = np.maximum(lo * s, hi * s)
        assert np.array_equal(p.j0(r, s), expected)


def test_convexity_inequality_for_convex_builtins():
    rng = np.random.default_rng(23)
    for pid in CONVEX_IDS:
        p = make_potential(pid, b=0.4)
        for _ in range(200):
            r, s = rng.uniform(-10, 10, 2)
            gap = p.value(s) - p.value(r)
            scale = 1.0 + abs(gap)
            assert p.j0(r, s - r) <= gap + 1e-10 * scale


def test_exp_quadratic_shifted_subdifferential_monotone():
    # adding r^2/2 to the well-exponential potential makes its law monotone
    p = ExpQuadraticPotential(b=1.0)
    grid = np.sort(default_grid(p))
    lo, hi = p.subdiff_bounds(grid)
    upper = hi + grid
    lower = lo + grid
    assert np.all(upper[:-1] <= lower[1:] + 1e-12)


# -- hypothesis checkers -------------------------------------------------------


def test_growth_exp_quadratic_derives_its_constants():
    # the quadratic branch 2 (r - b) gives c1 = 2, and |dj| - 2|r| = 2b at r <= 0
    report = check_growth(ExpQuadraticPotential(b=1.5))
    assert report.passed and report.constants == (3.0, 2.0)
    assert report.worst_margin == 0.0 and report.worst_point == (0.0,)


def test_growth_abs_bounded():
    report = check_growth(AbsPotential(b=0.0))
    assert report.passed and report.constants == (1.0, 0.0)


def test_growth_of_the_flatter_parabola():
    # far out the flatter parabola (k = 1) wins; |dj| - |r| peaks at a crossing
    # on the steeper one: |dj(0)| = 3 for the crossings b -+ 1 at b = 1
    report = check_growth(MinQuadraticsPotential(b=1.0))
    assert report.constants == (3.0, 1.0) and report.worst_point == (0.0,)


def test_growth_fails_for_a_superlinear_ramp():
    report = check_growth(QuinticRampPotential(b=0.0, beta=1.0, c=0.0))
    assert not report.passed
    assert report.constants == (np.inf, np.inf) and report.worst_point == (np.inf,)


def test_sign_condition_builtins():
    for pid in ("exp_quadratic", "min_quadratics", "quadratic", "truncated_quadratic", "abs"):
        assert check_sign_condition(make_potential(pid, b=1.0)).passed


def test_sign_condition_truncated_strictly_negative_off_anchor():
    p = TruncatedQuadraticPotential(b=1.0)
    assert check_strict_condition(p).passed
    grid = default_grid(p)
    vals = p.j0(grid, p.b - grid)
    assert np.all(vals[grid != p.b] < 0.0)


def test_sign_condition_violated_by_concave_potential():
    assert not check_sign_condition(ConcaveQuadratic(b=1.0)).passed


def test_strict_condition():
    assert check_strict_condition(QuadraticPotential(b=1.0)).passed
    assert check_strict_condition(AbsPotential(b=1.0)).passed
    assert not check_strict_condition(FlatPotential(b=1.0)).passed


def test_strict_condition_allows_a_zero_limit_but_not_a_zero_piece():
    # the exp branch's slope -exp(-(r-b)) tends to 0 at +inf and the well's
    # slope to 0 at b: limits, not points, so the strict form holds
    report = check_strict_condition(ExpQuadraticPotential(b=1.0))
    assert report.passed and report.worst_margin == 0.0 and report.worst_point == (1.0,)
    # the ramp is flat left of its kink c = b: slope 0 at both ends of a piece
    report = check_strict_condition(QuinticRampPotential(b=1.0, c=1.0))
    assert check_sign_condition(QuinticRampPotential(b=1.0, c=1.0)).passed and not report.passed


@pytest.mark.parametrize("b", (0.0, 0.8, 1.0, 1.5))
@pytest.mark.parametrize("pid", ALL_IDS)
def test_builtins_derive_their_relaxed_monotonicity_constant_and_convexity(pid, b):
    # the exp branch curves by -exp(-(r-b)), down to -1 at the anchor; the
    # parabolas of min_quadratics cross at concave kinks; the rest are convex,
    # as the README's table says
    p = make_potential(pid, b=b)
    assert p.m_j == {"exp_quadratic": 1.0, "min_quadratics": np.inf}.get(pid, 0.0)
    assert p.convex == (pid in CONVEX_IDS)


# every built-in at its defaults, and parameters that move its pieces
PARAMETER_VARIANTS = [(pid, {}) for pid in ALL_IDS] + [
    ("min_quadratics", {"k1": 2.0, "k2": 2.0}),
    ("min_quadratics", {"c2": 1.0}),
    ("min_quadratics", {"c2": -0.5}),
    ("truncated_quadratic", {"m1": -1.0, "m2": 0.5, "r0": 0.5}),
    ("quintic_ramp", {"beta": 0.3, "c": -0.7}),
]
PARAMETER_IDS = [f"{pid}{params}" for pid, params in PARAMETER_VARIANTS]


@pytest.mark.parametrize("b", (0.0, 0.8, 1.0, 1.5))
@pytest.mark.parametrize("pid, params", PARAMETER_VARIANTS, ids=PARAMETER_IDS)
def test_relaxed_monotonicity_constant_matches_the_pair_sample(pid, params, b):
    p = make_potential(pid, b=b, **params)
    sample = relaxed_monotonicity_reference(p)
    if pid == "min_quadratics" and params in ({}, {"c2": -0.5}):
        # the parabolas cross at concave kinks, where no ratio is bounded
        assert p.concave_kinks() and p.m_j == np.inf and sample > 1e6
    else:
        assert abs(p.m_j - sample) <= 1e-6


@pytest.mark.parametrize("b", (0.0, 0.8, 1.0, 1.5))
@pytest.mark.parametrize("pid, params", PARAMETER_VARIANTS, ids=PARAMETER_IDS)
def test_every_piece_has_one_curvature_sign(pid, params, b):
    # the exact verdicts rest on this: each piece's derivative is monotone,
    # so its extremes are its end values; m_j also needs the curvature to be
    # extreme at the ends, and check_growth a constant curvature on an
    # unbounded piece whose curvature tends to a finite nonzero limit, and
    # |dj| - c1 |r| never above its largest value at a piece end
    p = make_potential(pid, b=b, **params)
    for i, (x0, x1, d0, d1, k0, k1) in enumerate(p.piece_ends()):
        r = np.linspace(max(x0, b - 30.0), min(x1, b + 30.0), 2001)[1:-1]
        _, d, k = (np.broadcast_to(np.asarray(v, dtype=float), r.shape) for v in p._piece(i, r))
        assert np.all(k >= 0.0) or np.all(k <= 0.0), (i, x0, x1)
        assert np.all((min(k0, k1) <= k) & (k <= max(k0, k1))), (i, x0, x1)
        assert np.all((min(d0, d1) <= d) & (d <= max(d0, d1))), (i, x0, x1)
        for x, limit in ((x0, k0), (x1, k1)):
            if np.isinf(x) and np.isfinite(limit) and limit != 0.0:
                assert np.all(k == limit), (i, x)
    c0, c1 = check_growth(p).constants
    if np.isfinite(c1):
        r = np.linspace(b - 30.0, b + 30.0, 6001)
        lo, hi = p.subdiff_bounds(r)
        assert np.max(np.maximum(np.abs(lo), np.abs(hi)) - c1 * np.abs(r)) <= c0 * (1.0 + 1e-12)


@pytest.mark.parametrize("b", (0.0, 0.8, 1.0, 1.5))
@pytest.mark.parametrize("pid, params", PARAMETER_VARIANTS, ids=PARAMETER_IDS)
def test_exact_verdicts_match_the_sampled_checks(pid, params, b):
    p = make_potential(pid, b=b, **params)
    assert check_sign_condition(p).passed == sign_condition_reference(p)
    assert check_strict_condition(p).passed == strict_condition_reference(p)
    assert check_scaled_sign_condition(p).passed == scaled_sign_condition_reference(p)
    growth = check_growth(p)
    if pid in ("quintic_ramp", "power_ramp"):
        assert not growth.passed and growth.constants[1] == np.inf
    else:
        c0, c1 = growth.constants
        assert growth.passed and c0 == pytest.approx(growth_reference(p, c1), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("b", (0.0, 0.8, 1.0, 1.5))
def test_a_ramp_kinked_just_below_the_anchor_fails_the_exact_sign_condition(b):
    # dj = 5 (r - c)^4 is 5e-24 > 0 just left of b: the sample stays under
    # its 1e-14 slack and passes, the piece end at b does not
    p = make_potential("quintic_ramp", b=b, c=b - 1e-6)
    report = check_sign_condition(p)
    assert sign_condition_reference(p) and not report.passed
    assert report.worst_margin == pytest.approx(5e-24, rel=1e-6) and report.worst_point == (b,)


def test_concave_kinks_make_the_relaxed_monotonicity_constant_infinite():
    # the parabolas cross at b -+ sqrt(2 (c2 - c1) / (k1 - k2)) = b -+ 1, where
    # the subgradient jumps down from the outer slope to the inner one
    p = MinQuadraticsPotential(b=1.0)
    assert p.concave_kinks() == p.breakpoints() == (0.0, 2.0)
    assert p.m_j == np.inf and not p.convex
    shallow = MinQuadraticsPotential(b=1.0, c2=-0.5)
    assert len(shallow.concave_kinks()) == 2 and shallow.m_j == np.inf
    one = MinQuadraticsPotential(b=1.0, c2=1.0)  # convex: one parabola
    assert one.concave_kinks() == () and one.m_j == 0.0 and one.convex


@pytest.mark.parametrize("k", (0.0, 0.5))
def test_a_law_with_only_a_piece_table_and_prox_gets_its_constants(k):
    p = SoftenedAbs(b=0.3, k=k)
    assert p.concave_kinks() == ()
    assert p.m_j == k and p.convex == (k == 0.0)


def test_relaxed_monotonicity_constant_is_derived_once_per_instance(monkeypatch):
    tables = []
    ends = Potential.piece_ends
    monkeypatch.setattr(Potential, "piece_ends", lambda p, *a: tables.append(p) or ends(p, *a))
    p = ExpQuadraticPotential(b=1.0)
    assert p.m_j == 1.0
    derived = len(tables)
    assert (p.convex, p.m_j, p.convex) == (False, 1.0, False) and len(tables) == derived
    fresh = ExpQuadraticPotential(b=1.0)
    assert fresh.m_j == 1.0 and tables == [p] * derived + [fresh] * derived


def test_concave_quadratic_curves_by_minus_one():
    p = ConcaveQuadratic(b=1.0)
    assert p.concave_kinks() == ()
    assert p.m_j == 1.0 and not p.convex
    assert FlatPotential(b=1.0).m_j == 0.0 and FlatPotential(b=1.0).convex


def test_scaled_sign_condition_outcomes():
    assert check_scaled_sign_condition(QuadraticPotential(b=1.0)).passed
    assert check_scaled_sign_condition(AbsPotential(b=1.0)).passed
    assert check_scaled_sign_condition(TruncatedQuadraticPotential(b=1.0)).passed
    assert not check_scaled_sign_condition(ExpQuadraticPotential(b=1.0)).passed
    assert not check_scaled_sign_condition(MinQuadraticsPotential(b=1.0)).passed


@pytest.mark.parametrize("rising", (True, False))
def test_scaled_sign_condition_peaks_inside_a_piece_below_the_anchor(rising):
    # the jump at b hides both from the comparison across b: on the rising
    # piece c dj(s) - dj(r) peaks as s, r -> b, at (c - 1) dj(b-) = 99 * 5;
    # on the falling one as s -> -inf and r -> b, at c dj(-inf) - dj(b-) = 100 * 2 - 1
    p = JumpAtAnchor(b=0.0, rising=rising)
    report = check_scaled_sign_condition(p)
    assert not report.passed and not scaled_sign_condition_reference(p)
    if rising:
        assert report.worst_margin == 495.0 and report.worst_point == (0.0, 0.0, 100.0)
    else:
        assert report.worst_margin == 199.0 and report.worst_point == (-np.inf, 0.0, 100.0)


# -- scalar resolvent (prox) ---------------------------------------------------


def test_quadratic_prox_closed_form():
    p = QuadraticPotential(b=2.0)
    assert p.prox(5.0, 3.0) == pytest.approx((5.0 + 3.0 * 2.0) / 4.0, rel=1e-15)


def test_abs_prox_clamps_to_anchor():
    p = AbsPotential(b=1.0)
    assert p.prox(1.4, 0.5) == 1.0
    assert p.prox(2.0, 0.5) == 1.5
    assert p.prox(-1.0, 0.5) == -0.5


def test_prox_optimality_all_convex_builtins():
    rng = np.random.default_rng(31)
    for pid in CONVEX_IDS:
        p = make_potential(pid, b=0.6)
        for _ in range(50):
            z = rng.uniform(-8, 8)
            tau = rng.uniform(1e-3, 10)
            u = p.prox(z, tau)
            residual = (z - u) / tau
            assert distance(p.subdiff(u), residual) <= 1e-9 * (1.0 + abs(residual))


def test_prox_truncated_quadratic_piecewise():
    p = TruncatedQuadraticPotential(b=0.0, m1=-2.0, m2=3.0, r0=1.0)
    tau = 0.5
    # in the clamped regions the map is a plain shift
    assert p.prox(-10.0, tau) == pytest.approx(-10.0 + tau * 2.0, rel=1e-15)
    assert p.prox(10.0, tau) == pytest.approx(10.0 - tau * 3.0, rel=1e-15)
    # inside the band it matches the smooth quadratic resolvent
    assert p.prox(0.3, tau) == pytest.approx(0.3 / 1.5, rel=1e-14)


@pytest.mark.parametrize("pid", ALL_IDS)
def test_prox_is_the_global_minimizer(pid):
    p = make_potential(pid, b=0.6)
    for tau in (0.05, 0.7, 3.0):
        # z straddles every breakpoint, including the switches between a
        # kink and a branch that scale with tau
        zs = [
            bp + s * tau + off
            for bp in p.breakpoints() or (p.b,)
            for s in (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0)
            for off in (-1e-12, 0.0, 1e-12, 0.3)
        ]
        if pid == "exp_quadratic":  # the exp branch's minimizer appears at w = 1 + ln(tau)
            zs += [p.b + 1.0 + np.log(tau) + off for off in (-1e-3, 0.0, 1e-3, 0.5)]
        for z in zs:
            t = p.prox(z, tau)
            energy = 0.5 * (t - z) ** 2 + tau * p.value(t)
            t_ref, energy_ref = prox_reference(p, z, tau)
            assert energy <= energy_ref + 1e-12 * (1.0 + abs(energy_ref)), (z, tau, t, t_ref)
            # tight enough that a kink taken on an energy tie, one rounding
            # step past where its one-sided derivatives hold it, fails
            residual = (z - t) / tau
            assert distance(p.subdiff(t), residual) <= 1e-12 * (1.0 + abs(residual)), (z, tau, t)


def test_prox_not_implemented_on_the_base_class():
    with pytest.raises(NotImplementedError):
        FlatPotential().prox(1.0, 1.0)


# -- registry ------------------------------------------------------------------


def test_registry_roundtrip():
    p = make_potential("truncated_quadratic", b=1.0, m1=-3.0, m2=4.0, r0=2.0)
    assert p.params() == {"m1": -3.0, "m2": 4.0, "r0": 2.0}


def test_unknown_potential_lists_available():
    with pytest.raises(UnknownPotentialError) as err:
        make_potential("unknown")
    message = str(err.value)
    for pid in ALL_IDS:
        assert pid in message


def test_tresca_ignores_anchor_in_value():
    p = TrescaPotential(b=3.0)
    assert p.value(-2.0) == 2.0
    assert not check_sign_condition(p).passed  # anchored away from its kink


def test_power_ramp_growth_superlinear():
    # the curvature (9/4)(5/4) r^{1/4} has no finite limit at +inf
    report = check_growth(PowerRampPotential(b=0.0, beta=1.0))
    assert not report.passed and report.constants[1] == np.inf
