from types import SimpleNamespace

import numpy as np
import pytest

import hviheat.assembly
import hviheat.hvi_solver
import hviheat.verification
from hviheat.assembly import ProblemData, mesh_operators
from hviheat.hvi_solver import SolverOptions, solve_dirichlet, solve_robin, trace_constant
from hviheat.mesh import Mesh, generate_unit_square_mesh
from hviheat.potentials import (
    AbsPotential,
    ExpQuadraticPotential,
    MinQuadraticsPotential,
    Potential,
    QuadraticPotential,
    TruncatedQuadraticPotential,
)
from hviheat.verification import (
    PreconditionError,
    refinement_study,
    verify_alpha_convergence,
    verify_comparison,
    verify_continuous_dependence,
    verify_linear_theorem,
    verify_monotonicity,
)

from oracles import trace_constant_reference


def mesh8():
    return generate_unit_square_mesh(8)


def claim(report, name):
    matches = [c for c in report.claims if c.claim == name]
    assert matches, f"claim {name!r} not found in {[c.claim for c in report.claims]}"
    return matches[0]


class TestLinearTheorem:
    def test_closed_form_error_ratio(self):
        # with zero interior data the error norm is |x|_V / (1 + alpha)
        m = mesh8()
        rep = verify_linear_theorem(
            m, ProblemData.make(m, b=1.0, alpha=1.0), alphas=(10.0, 100.0)
        )
        errs = [row.err_v for row in rep.rows]
        assert errs[0] / errs[1] == pytest.approx(101.0 / 11.0, rel=0.05)

    def test_gamma3_gap_at_alpha_nine(self):
        m = mesh8()
        d = ProblemData.make(m, b=1.0, alpha=9.0)
        u_inf = solve_dirichlet(m, d).solution.values
        u_a = solve_robin(m, d).solution.values
        gap = np.max((u_inf - u_a)[m.vertices[:, 0] == 1.0])
        assert abs(gap - 0.1) <= 1e-9

    def test_all_claims_pass_with_general_data(self):
        m = mesh8()
        rep = verify_linear_theorem(m, ProblemData.make(m, g=-1.0, q=1.0, b=1.0, alpha=1.0))
        assert rep.passed
        assert claim(rep, "error_nonincreasing").verdict == "pass"
        assert claim(rep, "final_error_below_target").verdict == "pass"

    def test_uncertified_solve_fails_its_row(self):
        m = mesh8()
        d = ProblemData.make(m, g=-1.0, q=1.0, b=1.0, alpha=1.0)
        rep = verify_linear_theorem(m, d, alphas=(1.0, 10.0), opts=SolverOptions(tol_interior=1e-30))
        assert all(row.certificate_max > 1e-30 for row in rep.rows)
        assert [row.verdict for row in rep.rows] == ["fail", "fail"]
        assert not rep.passed

    def test_rejects_sign_violating_data(self):
        m = mesh8()
        with pytest.raises(PreconditionError, match="sign"):
            verify_linear_theorem(m, ProblemData.make(m, g=1.0, b=1.0, alpha=1.0))

    def test_rejects_nonpositive_datum(self):
        m = mesh8()
        with pytest.raises(PreconditionError, match="b > 0"):
            verify_linear_theorem(m, ProblemData.make(m, b=0.0, alpha=1.0))


class TestComparison:
    def test_nonconvex_law_passes(self):
        m = generate_unit_square_mesh(16)
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=1.0)
        rep = verify_comparison(m, d, ExpQuadraticPotential(b=1.0), alphas=(1.0, 10.0, 100.0))
        assert rep.passed
        assert all(row.verdict == "pass" for row in rep.rows)

    def test_quadratic_reduces_to_linear_margins(self):
        m = mesh8()
        d = ProblemData.make(m, g=-1.0, q=1.0, b=1.0, alpha=1.0)
        rep = verify_comparison(m, d, QuadraticPotential(b=1.0), alphas=(10.0,))
        lin = verify_linear_theorem(m, d, alphas=(10.0,))
        hvi_margin = claim(rep, "below_datum[alpha=10]").margin
        lin_margin = claim(lin, "robin_below_datum[alpha=10]").margin
        assert hvi_margin == pytest.approx(lin_margin, rel=0.05)

    def test_refuses_violating_data(self):
        m = mesh8()
        with pytest.raises(PreconditionError):
            verify_comparison(
                m, ProblemData.make(m, g=1.0, b=1.0, alpha=1.0), QuadraticPotential(b=1.0)
            )


    def test_one_validation_and_one_bulk_factorization_per_mesh(self, monkeypatch):
        validate = hviheat.assembly.validate_mesh
        validations = []

        def counting_validate(mesh):
            validations.append(mesh)
            return validate(mesh)

        spla = hviheat.hvi_solver.spla
        factored = []

        def counting_splu(A, *args, **kwargs):
            factored.append(A.shape)
            return spla.splu(A, *args, **kwargs)

        monkeypatch.setattr(hviheat.assembly, "validate_mesh", counting_validate)
        monkeypatch.setattr(
            hviheat.hvi_solver, "spla", SimpleNamespace(splu=counting_splu)
        )
        m = mesh8()
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=1.0)
        rep = verify_comparison(m, d, AbsPotential(b=1.0), alphas=(1.0, 10.0, 100.0))
        assert rep.passed
        assert len(validations) == 1
        ops = mesh_operators(m)
        n_bulk, n_free = len(ops.bulk), len(ops.bulk) + len(ops.gamma3)
        assert sorted(factored) == [(n_bulk, n_bulk), (n_free, n_free)]


def _count_factorizations(monkeypatch):
    """Record each ``splu`` of the solvers, with whether one of the experiments' solves was running."""
    splu = hviheat.hvi_solver.spla.splu
    factored, inside = [], []

    def counting_splu(A, *args, **kwargs):
        factored.append((A.shape, bool(inside)))
        return splu(A, *args, **kwargs)

    def flagged(solve):
        def run(*args, **kwargs):
            inside.append(1)
            try:
                return solve(*args, **kwargs)
            finally:
                inside.pop()

        return run

    monkeypatch.setattr(hviheat.hvi_solver, "spla", SimpleNamespace(splu=counting_splu))
    for name in ("solve_dirichlet", "solve_robin", "solve_hvi"):
        monkeypatch.setattr(hviheat.verification, name, flagged(getattr(hviheat.verification, name)))
    return factored


def test_linear_theorem_factors_twice_for_five_alphas(monkeypatch):
    factored = _count_factorizations(monkeypatch)
    m = mesh8()
    alphas = (1.0, 3.0, 10.0, 30.0, 100.0)
    rep = verify_linear_theorem(m, ProblemData.make(m, g=-1.0, q=1.0, b=1.0, alpha=1.0), alphas=alphas)
    assert len(rep.rows) == 5
    assert len(factored) == 2


def test_continuous_dependence_factors_only_in_its_solves(monkeypatch):
    # the smallness gate reads the Schur complement that the solves cached:
    # no factorization and no consistent G3 mass of its own
    factored = _count_factorizations(monkeypatch)
    builds = []
    assemble = hviheat.assembly.assemble_boundary_mass
    monkeypatch.setattr(
        hviheat.assembly, "assemble_boundary_mass", lambda mesh: builds.append(mesh) or assemble(mesh)
    )
    m = mesh8()
    d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=1.0)
    shape = m.vertices[:, 0] * (1.0 - m.vertices[:, 0])
    perturbed = [ProblemData(g=d.g + 2.0**-k * shape, q=d.q, b=d.b, alpha=d.alpha) for k in range(3)]
    rep = verify_continuous_dependence(m, d, QuadraticPotential(b=1.0), perturbed)
    assert rep.passed
    assert len(factored) == 2
    assert all(during for _, during in factored)
    assert builds == [] and "gamma3_mass" not in mesh_operators(m)._derived


def _obtuse_mesh() -> Mesh:
    """``mesh8()`` with the vertex at (1/2, 1/2) moved by 0.45 h toward (1, 1)."""
    m = mesh8()
    vertices = m.vertices.copy()
    vertices[np.all(vertices == 0.5, axis=1)] += 0.45 / 8
    return Mesh(vertices, m.triangles, m.boundary_edges, m.boundary_tags)


@pytest.mark.parametrize(
    "experiment, kwargs",
    [(verify_comparison, {"alphas": (1.0, 10.0)}), (verify_monotonicity, {"alpha_pairs": ((1.0, 10.0),)})],
)
def test_stiffness_m_matrix_is_reported_not_gated(experiment, kwargs):
    for mesh, expected in ((mesh8(), "yes"), (_obtuse_mesh(), "no")):
        d = ProblemData.make(mesh, g=-1.0, q=0.5, b=1.0, alpha=1.0)
        rep = experiment(mesh, d, QuadraticPotential(b=1.0), **kwargs)
        assert rep.passed
        assert ("stiffness_m_matrix", expected) in rep.config
        assert f"config stiffness_m_matrix = {expected}" in rep.summary()


class TestMonotonicity:
    @pytest.mark.parametrize("pair", [(10.0, 1.0), (0.0, 1.0)])
    def test_rejects_unordered_or_nonpositive_pair(self, pair):
        m = mesh8()
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=1.0)
        with pytest.raises(PreconditionError, match="0 < alpha1 <= alpha2"):
            verify_monotonicity(m, d, QuadraticPotential(b=1.0), alpha_pairs=(pair,))

    def test_quadratic_pairs_pass(self):
        m = mesh8()
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=1.0)
        rep = verify_monotonicity(
            m, d, QuadraticPotential(b=1.0), alpha_pairs=((1.0, 10.0), (10.0, 100.0))
        )
        assert rep.passed
        assert all(c.verdict == "pass" for c in rep.claims)

    def test_truncated_quadratic_pair_passes(self):
        m = mesh8()
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=1.0)
        rep = verify_monotonicity(
            m, d, TruncatedQuadraticPotential(b=1.0), alpha_pairs=((1.0, 5.0),)
        )
        assert rep.passed

    def test_nonconvex_gate_refuses_without_override(self):
        m = mesh8()
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=1.0)
        with pytest.raises(PreconditionError, match="override"):
            verify_monotonicity(m, d, ExpQuadraticPotential(b=1.0))

    def test_override_labels_outside_scope(self):
        m = mesh8()
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=1.0)
        rep = verify_monotonicity(
            m, d, ExpQuadraticPotential(b=1.0), alpha_pairs=((1.0, 10.0),), override=True
        )
        assert any(c.verdict == "scope" for c in rep.claims)
        assert ("scope", "outside-theorem") in rep.config


class TestAlphaConvergence:
    def test_quadratic_rate(self):
        m = mesh8()
        d = ProblemData.make(m, b=1.0, alpha=1.0)
        rep = verify_alpha_convergence(
            m,
            d,
            QuadraticPotential(b=1.0),
            alphas=(1.0, 10.0, 100.0, 1000.0),
            rate_window=(-1.05, -0.95),
        )
        assert rep.passed
        assert "rate" in claim(rep, "rate_in_window").detail

    def test_nonconvex_errors_strictly_decreasing(self):
        m = generate_unit_square_mesh(16)
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=1.0)
        rep = verify_alpha_convergence(
            m, d, ExpQuadraticPotential(b=1.0), alphas=(1.0, 10.0, 100.0, 1000.0)
        )
        assert rep.passed
        errs = [row.err_v for row in rep.rows]
        assert all(errs[k] > errs[k + 1] for k in range(len(errs) - 1))

    def test_single_alpha_degenerates(self):
        m = mesh8()
        d = ProblemData.make(m, b=1.0, alpha=1.0)
        rep = verify_alpha_convergence(m, d, QuadraticPotential(b=1.0), alphas=(10.0,))
        assert claim(rep, "single_alpha").verdict == "pass"
        assert len(rep.rows) == 1

    def test_requires_strict_condition(self):
        m = mesh8()
        d = ProblemData.make(m, b=1.0, alpha=1.0)

        class Flat(Potential):
            def _piece(self, i, r):
                return 0.0, 0.0, 0.0

        with pytest.raises(PreconditionError, match="strict"):
            verify_alpha_convergence(m, d, Flat(b=1.0))


class TestContinuousDependence:
    @staticmethod
    def perturbation_sequence(mesh, data, levels):
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        bump = x * (1 - x) * y * (1 - y)
        return [
            ProblemData(g=data.g + 2.0 ** (-k) * bump, q=data.q, b=data.b, alpha=data.alpha)
            for k in range(levels)
        ]

    def test_quadratic_halving(self):
        m = mesh8()
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=2.0)
        rep = verify_continuous_dependence(
            m,
            d,
            QuadraticPotential(b=1.0),
            self.perturbation_sequence(m, d, 5),
            ratio_target=2.0,
        )
        assert rep.passed
        assert claim(rep, "smallness_condition").verdict == "pass"
        assert claim(rep, "per_step_contraction").verdict == "pass"

    @pytest.mark.parametrize(
        "p, alpha", [(QuadraticPotential(b=1.0), 2.0), (ExpQuadraticPotential(b=1.0), 0.5)]
    )
    def test_smallness_margin_from_the_trace_constant(self, p, alpha):
        m = mesh8()
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=alpha)
        perturbed = self.perturbation_sequence(m, d, 5)
        rep = verify_continuous_dependence(m, d, p, perturbed, ratio_target=2.0)
        expected = 1.0 - alpha * p.m_j * trace_constant_reference(m)
        assert abs(claim(rep, "smallness_condition").margin - expected) <= 1e-10
        assert [(c.claim, c.verdict) for c in rep.claims] == [
            ("smallness_condition", "pass"),
            ("error_nonincreasing", "pass"),
            ("error_within_fitted_stability_constant", "pass"),
            ("per_step_contraction", "pass"),
        ]
        assert [row.verdict for row in rep.rows] == ["pass"] * 5

    def test_gate_is_the_energy_form(self):
        # at alpha m_j = 0.8 the mixed form (< 0.712) fails, the energy form (< 1) holds
        m = generate_unit_square_mesh(16)
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=0.8)
        rep = verify_continuous_dependence(
            m, d, ExpQuadraticPotential(b=1.0), self.perturbation_sequence(m, d, 5)
        )
        smallness = claim(rep, "smallness_condition")
        assert smallness.verdict == "pass" and abs(smallness.margin - 0.2) <= 1e-12
        assert smallness.detail == "gamma_W^2=1, m_j=1"
        assert rep.passed and ("smallness", "holds") in rep.config

    def test_concave_kink_is_out_of_scope_by_name(self):
        m = mesh8()
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=1.0)
        rep = verify_continuous_dependence(
            m, d, MinQuadraticsPotential(b=1.0), self.perturbation_sequence(m, d, 3)
        )
        smallness = claim(rep, "smallness_condition")
        assert (smallness.verdict, smallness.margin) == ("scope", -np.inf)
        assert smallness.detail.endswith("m_j=inf, concave kink at r=0")
        assert rep.passed

    def test_zero_perturbation_zero_error(self):
        m = mesh8()
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=2.0)
        rep = verify_continuous_dependence(m, d, QuadraticPotential(b=1.0), [d])
        assert rep.rows[0].err_v == 0.0

    def test_mismatched_alpha_fails_before_any_solve(self, monkeypatch):
        calls = []
        for name in ("solve_hvi", "trace_constant"):
            monkeypatch.setattr(
                hviheat.verification, name, lambda *args, name=name, **kwargs: calls.append(name)
            )
        m = mesh8()
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=2.0)
        perturbed = self.perturbation_sequence(m, d, 3)
        perturbed[2] = ProblemData(g=perturbed[2].g, q=d.q, b=d.b, alpha=3.0)
        with pytest.raises(PreconditionError, match="same exchange coefficient"):
            verify_continuous_dependence(m, d, QuadraticPotential(b=1.0), perturbed)
        assert calls == []

    def test_smallness_violation_downgrades_to_existence(self):
        m = mesh8()
        d = ProblemData.make(m, g=-0.5, q=0.2, b=1.0, alpha=10.0)
        rep = verify_continuous_dependence(
            m, d, ExpQuadraticPotential(b=1.0), self.perturbation_sequence(m, d, 3)
        )
        assert claim(rep, "smallness_condition").verdict == "scope"
        assert rep.passed  # certified solves, no failed claims
        assert ("smallness", "violated (existence-only)") in rep.config


class TestRefinement:
    def test_affine_exactness_across_meshes(self):
        rep = refinement_study(
            (2, 4, 8, 16),
            alpha=1.0,
            b=1.0,
            problem="robin",
            exact=lambda x, y: 0.5 * x,
            expect_exact=True,
        )
        assert rep.passed
        assert claim(rep, "nodal_error_at_machine_scale").verdict == "pass"

    def test_second_order_on_manufactured_solution(self):
        rep = refinement_study(
            (4, 8, 16),
            alpha=1.0,
            g=lambda x, y: -(2 * x**2 + 2 * y**2),
            q=lambda x, y: -2 * x**2 * y,
            b=lambda x, y: y**2,
            problem="dirichlet",
            exact=lambda x, y: x**2 * y**2,
        )
        assert rep.passed, claim(rep, "second_order_l2").detail

    def test_single_mesh_single_row(self):
        rep = refinement_study((4,), alpha=1.0, b=1.0, problem="robin")
        assert len(rep.rows) == 1
        assert claim(rep, "report_only").verdict == "pass"

    def test_rejects_decreasing_sizes(self):
        with pytest.raises(PreconditionError):
            refinement_study((8, 4), alpha=1.0)


class TestReportPlumbing:
    def test_csv_layout_and_determinism(self):
        m = mesh8()
        d = ProblemData.make(m, b=1.0, alpha=1.0)
        rep1 = verify_linear_theorem(m, d, alphas=(1.0, 10.0))
        rep2 = verify_linear_theorem(m, d, alphas=(1.0, 10.0))
        assert rep1.to_csv() == rep2.to_csv()
        lines = rep1.to_csv().splitlines()
        assert lines[0] == "case_id,n,alpha,potential,err_V,margin_min,certificate_max,verdict"
        assert len(lines) == 1 + len(rep1.rows)
        assert lines[1].startswith("alpha_1,8,1,")

    def test_summary_mentions_all_claims(self):
        m = mesh8()
        d = ProblemData.make(m, b=1.0, alpha=1.0)
        rep = verify_linear_theorem(m, d, alphas=(1.0,))
        text = rep.summary()
        for c in rep.claims:
            assert c.claim in text
