"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is fixed here, not configurable.
"""

import time

import numpy as np

from hviheat.assembly import (
    ProblemData,
    VertexClass,
    assemble_boundary_mass,
    assemble_load,
    assemble_stiffness,
    build_dof_map,
)
from hviheat.cli import parse_config, run
from hviheat.hvi_solver import solve_dirichlet, solve_hvi, solve_robin, trace_constant
from hviheat.mesh import generate_unit_square_mesh
from hviheat.potentials import (
    AbsPotential,
    ExpQuadraticPotential,
    MinQuadraticsPotential,
    QuadraticPotential,
    TruncatedQuadraticPotential,
    default_grid,
    make_potential,
)
from hviheat.verification import (
    verify_alpha_convergence,
    verify_comparison,
    verify_continuous_dependence,
)

from oracles import (
    abs_table,
    exp_quadratic_table,
    min_quadratics_table,
    quadratic_table,
    truncated_quadratic_table,
)


def report(num: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def gamma3_nodes(mesh):
    return np.nonzero(build_dof_map(mesh, "V0").vertex_class == VertexClass.GAMMA3)[0]


def test_criterion_1_affine_exactness():
    worst_err, worst_time = 0.0, 0.0
    for n in (2, 4, 8, 16):
        mesh = generate_unit_square_mesh(n)
        data = ProblemData.make(mesh, b=1.0, alpha=1.0)
        start = time.perf_counter()
        rep = solve_dirichlet(mesh, data)
        elapsed = time.perf_counter() - start
        err = float(np.max(np.abs(rep.solution.values - mesh.vertices[:, 0])))
        worst_err = max(worst_err, err)
        worst_time = max(worst_time, elapsed)
    ok = worst_err <= 1e-10 and worst_time < 1.0
    report(1, ok, f"limit problem reproduces u=x (max err {worst_err:.2e}, slowest case {worst_time:.3f}s)")


def test_criterion_2_robin_closed_form():
    mesh = generate_unit_square_mesh(8)
    x = mesh.vertices[:, 0]
    worst_field, worst_trace = 0.0, 0.0
    for alpha in (1.0, 9.0, 99.0):
        rep = solve_robin(mesh, ProblemData.make(mesh, b=1.0, alpha=alpha))
        u = rep.solution.values
        worst_field = max(worst_field, float(np.max(np.abs(u - alpha / (1 + alpha) * x))))
        worst_trace = max(
            worst_trace, float(np.max(np.abs(u[x == 1.0] - alpha / (1 + alpha))))
        )
    ok = worst_field <= 1e-10 and worst_trace <= 1e-10
    report(2, ok, f"linear exchange law matches (a/(1+a))x (field {worst_field:.2e}, trace {worst_trace:.2e})")


def random_h0_data(mesh, rng):
    g = -rng.uniform(0.0, 1.0, mesh.num_vertices)
    q = rng.uniform(0.0, 1.0, 4 * _n_of(mesh) // 2)  # one constant per G2 edge
    b = rng.uniform(0.0, 2.0)
    alpha = rng.uniform(0.5, 20.0)
    return ProblemData(g=g, q=np.repeat(q[:, None], 2, axis=1), b=b, alpha=alpha), b


def _n_of(mesh):
    return int(round(np.sqrt(mesh.num_triangles / 2.0)))


def test_criterion_3_hvi_robin_equivalence():
    mesh = generate_unit_square_mesh(8)
    rng = np.random.default_rng(20240809)
    worst = 0.0
    for _ in range(5):
        data, b = random_h0_data(mesh, rng)
        hvi = solve_hvi(mesh, data, QuadraticPotential(b=b))
        robin = solve_robin(mesh, data, boundary_mass="lumped")
        assert hvi.converged
        worst = max(worst, float(np.max(np.abs(hvi.solution.values - robin.solution.values))))
    ok = worst <= 1e-8
    report(3, ok, f"smooth-law solves agree with the lumped linear solver (max gap {worst:.2e})")


def test_criterion_4_comparison_bounds():
    mesh = generate_unit_square_mesh(16)
    data = ProblemData.make(mesh, g=-1.0, q=0.5, b=1.0, alpha=1.0)
    rep = verify_comparison(
        mesh, data, ExpQuadraticPotential(b=1.0), alphas=(1.0, 10.0, 100.0)
    )
    margins = [c.margin for c in rep.claims]
    ok = rep.passed and all(m >= -1e-9 for m in margins)
    report(4, ok, f"certified solutions stay below datum and limit (min margin {min(margins):.2e})")


def test_criterion_5_convergence_rates():
    mesh = generate_unit_square_mesh(8)
    smooth = verify_alpha_convergence(
        mesh,
        ProblemData.make(mesh, b=1.0, alpha=1.0),
        QuadraticPotential(b=1.0),
        alphas=(1.0, 10.0, 100.0, 1000.0),
        rate_window=(-1.05, -0.95),
    )
    rate_claim = next(c for c in smooth.claims if c.claim == "rate_in_window")

    mesh16 = generate_unit_square_mesh(16)
    rough = verify_alpha_convergence(
        mesh16,
        ProblemData.make(mesh16, g=-1.0, q=0.5, b=1.0, alpha=1.0),
        ExpQuadraticPotential(b=1.0),
        alphas=(1.0, 10.0, 100.0, 1000.0),
        final_rel_target=1e-2,
    )
    errs = [row.err_v for row in rough.rows]
    strictly_decreasing = all(errs[k] > errs[k + 1] for k in range(len(errs) - 1))
    ok = smooth.passed and rate_claim.verdict == "pass" and rough.passed and strictly_decreasing
    report(5, ok, f"error decay: {rate_claim.detail}; nonsmooth errors {['%.3e' % e for e in errs]}")


def test_criterion_6_continuous_dependence():
    mesh = generate_unit_square_mesh(8)
    data = ProblemData.make(mesh, g=-1.0, q=0.5, b=1.0, alpha=2.0)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    bump = x * (1 - x) * y * (1 - y)
    perturbed = [
        ProblemData(g=data.g + 2.0 ** (-k) * bump, q=data.q, b=data.b, alpha=data.alpha)
        for k in range(5)
    ]
    rep = verify_continuous_dependence(
        mesh, data, QuadraticPotential(b=1.0), perturbed, ratio_target=2.0, ratio_tol=0.25
    )
    smallness = next(c for c in rep.claims if c.claim == "smallness_condition")
    contraction = next(c for c in rep.claims if c.claim == "per_step_contraction")
    ok = rep.passed and smallness.verdict == "pass" and contraction.verdict == "pass"
    report(6, ok, f"halving perturbations halve the error ({contraction.detail})")


def test_criterion_7_potential_conformance():
    b = 1.0
    cases = [
        (ExpQuadraticPotential(b=b), lambda r: exp_quadratic_table(b, r)),
        (MinQuadraticsPotential(b=b), lambda r: min_quadratics_table(b, 1.0, 0.0, 3.0, -1.0, r)),
        (QuadraticPotential(b=b), lambda r: quadratic_table(b, r)),
        (TruncatedQuadraticPotential(b=b), lambda r: truncated_quadratic_table(b, -2.0, 3.0, 1.0, r)),
        (AbsPotential(b=b), lambda r: abs_table(b, r)),
    ]
    mismatches = 0
    for p, table in cases:
        for r in default_grid(p):
            lo, hi, j0 = table(float(r))
            iv = p.subdiff(float(r))
            if iv.lo != lo or iv.hi != hi or p.j0(float(r), b - float(r)) != j0:
                mismatches += 1
    mj_rough = ExpQuadraticPotential(b=b).m_j
    mj_convex = max(
        make_potential(pid, b=b).m_j for pid in ("quadratic", "truncated_quadratic", "abs")
    )
    ok = mismatches == 0 and mj_rough == 1.0 and mj_convex == 0.0
    report(
        7,
        ok,
        f"closed-form tables match exactly ({mismatches} mismatches); "
        f"relaxed-monotonicity constants {mj_rough:g} / convex {mj_convex:g}",
    )


def test_criterion_8_certificate_soundness():
    rng = np.random.default_rng(777)
    worst = np.inf
    for alpha, potential in ((10.0, ExpQuadraticPotential(b=1.0)), (5.0, QuadraticPotential(b=1.0))):
        mesh = generate_unit_square_mesh(8)
        data = ProblemData.make(mesh, g=-1.0, q=0.5, b=1.0, alpha=alpha)
        rep = solve_hvi(mesh, data, potential)
        assert rep.converged
        u = rep.solution.values
        A = assemble_stiffness(mesh)
        f = assemble_load(mesh, data)
        weights, _ = assemble_boundary_mass(mesh)
        g3 = gamma3_nodes(mesh)
        free = build_dof_map(mesh, "V0").free_indices
        for _ in range(1000):
            v = np.zeros(mesh.num_vertices)
            v[free] = rng.uniform(-1.0, 1.0, len(free))
            lhs = u @ (A @ v) + alpha * np.sum(weights[g3] * potential.j0(u[g3], v[g3]))
            worst = min(worst, float(lhs - f @ v))
    ok = worst >= -1e-7
    report(8, ok, f"discrete inequality holds along 2x1000 random directions (worst gap {worst:.2e})")


def test_criterion_9_uniqueness_under_smallness():
    mesh = generate_unit_square_mesh(8)
    p = ExpQuadraticPotential(b=1.0)
    gamma_sq = trace_constant(mesh)

    alpha_small = 0.3
    margin = 1.0 - alpha_small * p.m_j * gamma_sq
    assert margin > 0.0
    data = ProblemData.make(mesh, g=-0.5, q=0.2, b=1.0, alpha=alpha_small)
    rng = np.random.default_rng(99)
    fields = []
    for _ in range(10):
        rep = solve_hvi(mesh, data, p, initial=rng.uniform(-2.0, 2.0, mesh.num_vertices))
        assert rep.converged
        fields.append(rep.solution.values)
    spread = max(float(np.max(np.abs(f - fields[0]))) for f in fields)

    alpha_big = 10.0
    assert 1.0 - alpha_big * p.m_j * gamma_sq <= 0.0  # outside the uniqueness regime
    data_big = ProblemData.make(mesh, g=-0.5, q=0.2, b=1.0, alpha=alpha_big)
    existence_ok = all(
        solve_hvi(mesh, data_big, p, initial=rng.uniform(-2.0, 2.0, mesh.num_vertices)).converged
        for _ in range(3)
    )
    ok = spread <= 1e-6 and existence_ok
    report(
        9,
        ok,
        f"10-way multistart agrees to {spread:.2e} under smallness (margin {margin:.3f}); "
        f"certification only when smallness fails",
    )


def test_criterion_10_determinism(tmp_path):
    text = (
        "command = experiment\nexperiment.id = alpha_convergence\nmesh.n = 8\n"
        "problem.g = -1\nproblem.q = 0.5\nproblem.b = 1\nproblem.alphas = 1,10,100,1000\n"
        "potential.id = exp_quadratic\n"
    )
    for label in ("first", "second"):
        assert run(parse_config(text), tmp_path / label) == 0
    csv_a = (tmp_path / "first" / "alpha_convergence.csv").read_bytes()
    csv_b = (tmp_path / "second" / "alpha_convergence.csv").read_bytes()
    verdicts_a = (tmp_path / "first" / "verdicts.txt").read_bytes()
    verdicts_b = (tmp_path / "second" / "verdicts.txt").read_bytes()
    ok = csv_a == csv_b and verdicts_a == verdicts_b
    report(10, ok, f"reruns are byte-identical ({len(csv_a)} CSV bytes compared)")
