import json
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import hviheat.assembly
import hviheat.hvi_solver
from hviheat.assembly import (
    ProblemData,
    VertexClass,
    assemble_boundary_mass,
    assemble_load,
    assemble_stiffness,
    build_dof_map,
)
from hviheat.cli import parse_config, run
from hviheat.hvi_solver import (
    DEFAULT_OPTIONS,
    LinearSolveError,
    SolverOptions,
    check_certificate,
    solve_dirichlet,
    solve_hvi,
    solve_robin,
    trace_constant,
)
from hviheat.mesh import BoundaryTag, Mesh, generate_unit_square_mesh, load_mesh, save_mesh
from hviheat.potentials import (
    AbsPotential,
    ExpQuadraticPotential,
    QuadraticPotential,
    make_potential,
    potential_ids,
)
from oracles import l2_norm_reference, robin_reference, schur_reference

# The benchmark's robustness grid: g takes both signs, so data violating the
# sign conditions (solutions above the datum, nonconvex branches active) are in.
GRID = [
    (g, q, b, alpha)
    for g in (-4.0, -1.0, 1.0, 4.0)
    for q in (0.0, 1.0)
    for b in (0.5, 1.5)
    for alpha in (1.0, 10.0, 100.0)
]


def gamma3_nodes(mesh):
    return np.nonzero(build_dof_map(mesh, "V0").vertex_class == VertexClass.GAMMA3)[0]


class TestDirichlet:
    def test_affine_solution_reproduced(self):
        m = generate_unit_square_mesh(4)
        rep = solve_dirichlet(m, ProblemData.make(m, b=1.0, alpha=1.0))
        assert np.max(np.abs(rep.solution.values - m.vertices[:, 0])) <= 1e-10
        assert rep.linear_residual <= 1e-10

    def test_zero_data_gives_zero(self):
        m = generate_unit_square_mesh(3)
        rep = solve_dirichlet(m, ProblemData.make(m, alpha=1.0))
        assert np.all(rep.solution.values == 0.0)

    def test_superposition(self):
        m = generate_unit_square_mesh(4)
        rng = np.random.default_rng(5)
        g = rng.standard_normal(m.num_vertices)
        q = np.repeat(rng.standard_normal(2 * 4)[:, None], 2, axis=1)  # one constant per G2 edge
        up = solve_dirichlet(m, ProblemData(g=g, q=q, b=0.7, alpha=1.0))
        um = solve_dirichlet(m, ProblemData(g=-g, q=-q, b=-0.7, alpha=1.0))
        assert np.max(np.abs(up.solution.values + um.solution.values)) <= 1e-11

    def test_second_order_l2_error_on_a_manufactured_solution(self):
        # u = x^2 y^2 has -lap u = -(2x^2 + 2y^2), vanishes on G1 (x = 0), equals
        # y^2 on G3 (x = 1) and has -du/dn = -2x^2 y on G2 (y = 0 and y = 1)
        errors = []
        for n in (4, 8, 16):
            m = generate_unit_square_mesh(n)
            data = ProblemData.make(
                m,
                g=lambda x, y: -(2 * x**2 + 2 * y**2),
                q=lambda x, y: -2 * x**2 * y,
                b=lambda x, y: y**2,
                alpha=1.0,
            )
            x, y = m.vertices.T
            errors.append(l2_norm_reference(m, solve_dirichlet(m, data).solution.values - x**2 * y**2))
        ratios = np.divide(errors[:-1], errors[1:])
        assert np.all((3.0 <= ratios) & (ratios <= 5.0)), ratios

    def test_fixed_nodes_carry_prescribed_values(self):
        m = generate_unit_square_mesh(3)
        rep = solve_dirichlet(m, ProblemData.make(m, g=-1.0, b=2.5, alpha=1.0))
        u = rep.solution.values
        dof = build_dof_map(m, "K0")
        assert np.all(u[dof.vertex_class == VertexClass.GAMMA1] == 0.0)
        assert np.all(u[dof.vertex_class == VertexClass.GAMMA3] == 2.5)


class TestRobin:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    @pytest.mark.parametrize("alpha", [1.0, 9.0])
    def test_closed_form(self, alpha, n):
        m = generate_unit_square_mesh(n)
        rep = solve_robin(m, ProblemData.make(m, b=1.0, alpha=alpha))
        expected = alpha / (1.0 + alpha) * m.vertices[:, 0]
        assert np.max(np.abs(rep.solution.values - expected)) <= 1e-10

    def test_gamma3_trace_value(self):
        m = generate_unit_square_mesh(8)
        rep = solve_robin(m, ProblemData.make(m, b=1.0, alpha=9.0))
        trace = rep.solution.values[m.vertices[:, 0] == 1.0]
        assert np.max(np.abs(trace - 0.9)) <= 1e-10

    def test_zero_datum_gives_zero(self):
        m = generate_unit_square_mesh(4)
        rep = solve_robin(m, ProblemData.make(m, alpha=3.0))
        assert np.all(rep.solution.values == 0.0)

    def test_lumped_equals_consistent_for_affine(self):
        m = generate_unit_square_mesh(6)
        d = ProblemData.make(m, b=1.0, alpha=4.0)
        uc = solve_robin(m, d).solution.values
        ul = solve_robin(m, d, boundary_mass="lumped").solution.values
        assert np.max(np.abs(uc - ul)) <= 1e-12

    def test_rejects_unknown_mass(self):
        m = generate_unit_square_mesh(2)
        with pytest.raises(ValueError):
            solve_robin(m, ProblemData.make(m, alpha=1.0), boundary_mass="magic")


def _perturbed_factorization(monkeypatch):
    """Make ``splu`` in the solver factor ``A + diag(A)/2`` instead of ``A``.

    One refinement step then leaves a relative residual near 1e-1, far above
    the 1e-10 contract.
    """
    splu = hviheat.hvi_solver.spla.splu
    monkeypatch.setattr(
        hviheat.hvi_solver,
        "spla",
        SimpleNamespace(
            splu=lambda A, **kw: splu(sp.csc_matrix(A + 0.5 * sp.diags(A.diagonal())), **kw)
        ),
    )


def test_linear_solve_missing_its_contract_raises_with_the_history(monkeypatch):
    _perturbed_factorization(monkeypatch)
    m = generate_unit_square_mesh(6)
    with pytest.raises(LinearSolveError, match="exceeds 1e-10") as err:
        solve_robin(m, ProblemData.make(m, g=-1.0, b=1.0, alpha=3.0))
    history = err.value.history
    assert len(history) == 2  # the first solve and one refinement
    assert history[1] < history[0]


def test_linear_solve_error_exits_1_with_error_file(monkeypatch, tmp_path):
    _perturbed_factorization(monkeypatch)
    cfg = parse_config(
        "command = solve\nmesh.n = 6\nproblem.kind = robin\nproblem.g = -1\n"
        "problem.b = 1\nproblem.alpha = 3\n"
    )
    assert run(cfg, tmp_path) == 1
    payload = json.loads((tmp_path / "error.json").read_text())
    assert payload["error"] == "LinearSolveError"
    assert payload["status"] == 1
    assert not (tmp_path / "solution.csv").exists()


def _renumbered_mesh(n=8):
    base = generate_unit_square_mesh(n)
    perm = np.random.default_rng(17).permutation(base.num_vertices)
    vertices = np.empty_like(base.vertices)
    vertices[perm] = base.vertices
    return load_mesh(
        save_mesh(Mesh(vertices, perm[base.triangles], perm[base.boundary_edges], base.boundary_tags))
    )


def _interface_mesh():
    # G3 on x=1 and on y=1, so it meets G1 (x=0) at the declared vertex (0, 1)
    n = 6
    m = generate_unit_square_mesh(n)
    top = m.vertices[m.boundary_edges][:, :, 1].min(axis=1) == 1.0
    tags = tuple(BoundaryTag.GAMMA3 if t else tag for t, tag in zip(top, m.boundary_tags))
    corner = n * (n + 1)
    return load_mesh(
        save_mesh(Mesh(m.vertices, m.triangles, m.boundary_edges, tags, interface_vertices=(corner,)))
    )


def _jittered_mesh(jitter=0.35, seed=3):
    # interior vertices moved by up to `jitter` h: at 0.35 the stiffness is no longer an M-matrix
    n = 12
    m = generate_unit_square_mesh(n)
    rng = np.random.default_rng(seed)
    interior = np.all((m.vertices > 0.0) & (m.vertices < 1.0), axis=1)
    radius = jitter / n * np.sqrt(rng.uniform(size=interior.sum()))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=interior.sum())
    vertices = m.vertices.copy()
    vertices[interior] += radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    return Mesh(vertices, m.triangles, m.boundary_edges, m.boundary_tags)


TRACE_MESHES = {
    "renumbered": _renumbered_mesh,
    "interface": _interface_mesh,
    "jittered": _jittered_mesh,
    # moved by up to 0.42 h: threshold pivoting on A_bb leaves the diagonal here
    "strongly_jittered": lambda: _jittered_mesh(0.42, seed=1),
}


FACTOR_MESHES = {
    **TRACE_MESHES,
    **{f"generated_{n}": (lambda n=n: generate_unit_square_mesh(n)) for n in (2, 17, 64)},
}


class TestTrace:
    def test_jittered_mesh_is_valid_and_not_an_m_matrix(self):
        m = _jittered_mesh()
        A = assemble_stiffness(m).tocoo()
        assert hviheat.assembly.mesh_report(m) == ()
        assert np.any(A.data[A.row != A.col] > 0.0)

    @pytest.mark.parametrize("name", TRACE_MESHES)
    def test_schur_complement_matches_back_solves(self, name):
        m = TRACE_MESHES[name]()
        schur = hviheat.hvi_solver._trace_reduction(hviheat.assembly.mesh_operators(m))
        expected = schur_reference(m)
        assert np.max(np.abs(schur - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("mass", ["consistent", "lumped"])
    @pytest.mark.parametrize("name", TRACE_MESHES)
    def test_robin_matches_the_direct_solve(self, name, mass):
        m = TRACE_MESHES[name]()
        for alpha in (0.3, 3.0, 300.0):
            data = ProblemData.make(m, g=lambda x, y: 2.0 - 4.0 * x * y, q=0.5, b=0.5, alpha=alpha)
            rep = solve_robin(m, data, boundary_mass=mass)
            expected = robin_reference(m, data, mass)
            assert rep.converged
            assert np.max(np.abs(rep.solution.values - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("name", TRACE_MESHES)
    def test_bulk_factor_keeps_diagonal_pivots(self, name):
        ops = hviheat.assembly.mesh_operators(TRACE_MESHES[name]())
        lu = hviheat.hvi_solver._bulk_factor(ops)
        assert np.array_equal(lu.perm_r, lu.perm_c)

    def test_bulk_factor_fills_less_than_the_unsymmetric_order(self):
        ops = hviheat.assembly.mesh_operators(_renumbered_mesh(48))
        lu = hviheat.hvi_solver._bulk_factor(ops)
        colamd = spla.splu(sp.csc_matrix(ops.bulk_block))
        assert lu.L.nnz + lu.U.nnz <= 0.75 * (colamd.L.nnz + colamd.U.nnz)

    @pytest.mark.parametrize("name", FACTOR_MESHES)
    def test_bulk_factor_matches_factoring_a_csc_copy(self, name):
        # SuperLU reads the CSR bulk block through its transpose instead of a CSC copy
        ops = hviheat.assembly.mesh_operators(FACTOR_MESHES[name]())
        lu = hviheat.hvi_solver._bulk_factor(ops)
        spd = hviheat.hvi_solver._SPD_SPLU
        copied = spla.splu(sp.csc_matrix(ops.bulk_block), permc_spec="MMD_AT_PLUS_A", **spd)
        assert np.array_equal(lu.perm_c, copied.perm_c)
        assert np.array_equal(lu.perm_r, copied.perm_r)
        rhs = np.random.default_rng(5).standard_normal(ops.bulk_block.shape[0])
        assert np.array_equal(lu.solve(rhs), copied.solve(rhs))

    def test_g3_off_the_trailing_block_raises(self, monkeypatch):
        splu = hviheat.hvi_solver.spla.splu

        def misordered(A, **kwargs):
            lu = splu(A, **kwargs)
            if kwargs.get("permc_spec") != "NATURAL":
                return lu  # the bulk factor
            return SimpleNamespace(perm_r=lu.perm_r[::-1], perm_c=lu.perm_c, L=lu.L, U=lu.U)

        monkeypatch.setattr(hviheat.hvi_solver, "spla", SimpleNamespace(splu=misordered))
        m = generate_unit_square_mesh(4)
        with pytest.raises(LinearSolveError, match="moved G3 out of its trailing block"):
            solve_robin(m, ProblemData.make(m, g=-1.0, b=1.0, alpha=3.0))


class TestHvi:
    def test_quadratic_matches_lumped_robin(self):
        m = generate_unit_square_mesh(8)
        d = ProblemData.make(m, g=-0.4, q=0.2, b=1.2, alpha=7.0)
        hvi = solve_hvi(m, d, QuadraticPotential(b=1.2))
        robin = solve_robin(m, d, boundary_mass="lumped")
        assert hvi.converged
        assert np.max(np.abs(hvi.solution.values - robin.solution.values)) <= 1e-8

    def test_abs_zero_data_certifies_zero(self):
        m = generate_unit_square_mesh(4)
        d = ProblemData.make(m, alpha=2.0)
        rep = solve_hvi(m, d, AbsPotential(b=0.0))
        assert rep.converged
        assert np.all(rep.solution.values == 0.0)
        assert rep.certificate.gamma3_inclusion_max == 0.0

    def test_nonconvex_law_certified_and_below_datum(self):
        m = generate_unit_square_mesh(16)
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=10.0)
        rep = solve_hvi(m, d, ExpQuadraticPotential(b=1.0))
        assert rep.converged
        assert np.max(rep.solution.values) <= 1.0 + 1e-10

    def test_honest_nonconvergence_when_capped(self):
        m = generate_unit_square_mesh(4)
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=10.0)
        capped = SolverOptions(max_iters=0)
        rep = solve_hvi(m, d, ExpQuadraticPotential(b=1.0), capped)
        assert not rep.converged
        assert rep.certificate.gamma3_inclusion_max > 0.0
        assert (rep.iterations, rep.stop(capped)) == (0, "budget")

    def test_stop_names_why_the_solve_ended(self):
        m = generate_unit_square_mesh(8)
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=10.0)
        for rep in (
            solve_hvi(m, d, ExpQuadraticPotential(b=1.0)),
            solve_hvi(m, d, AbsPotential(b=1.0)),
            solve_robin(m, d),
            solve_robin(m, d, boundary_mass="lumped"),
            solve_dirichlet(m, d),
        ):
            assert rep.converged and rep.stop(DEFAULT_OPTIONS) == "certified"
        # below the rounding floor the sweeps stop moving with budget left
        floor = SolverOptions(tol_inclusion=1e-300)
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=1.0)  # off the kink
        rep = solve_hvi(m, d, AbsPotential(b=1.0), floor)
        assert not rep.converged and rep.iterations < floor.max_iters
        assert rep.stop(floor) == "stalled"
        # a linear solve counts one iteration: missing the tolerance is a stall
        tight = SolverOptions(tol_interior=1e-300)
        rep = solve_robin(m, d, tight)
        assert (rep.converged, rep.stop(tight)) == (False, "stalled")

    @pytest.mark.parametrize("n", [4, 16])
    @pytest.mark.parametrize("pid", ["quadratic", "exp_quadratic", "min_quadratics"])
    def test_newton_at_its_rounding_floor_stalls(self, pid, n):
        # the Newton steps of smooth laws only churn rounding below that floor
        m = generate_unit_square_mesh(n)
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=1.0)
        floor = SolverOptions(tol_inclusion=1e-300, max_iters=2000)
        rep = solve_hvi(m, d, make_potential(pid, b=1.0), floor)
        assert rep.stop(floor) == "stalled" and rep.iterations <= 10
        assert rep.certificate.gamma3_inclusion_max <= 1e-13

    def test_anchor_mismatch_rejected(self):
        m = generate_unit_square_mesh(2)
        d = ProblemData.make(m, b=1.0, alpha=1.0)
        with pytest.raises(ValueError, match="anchored"):
            solve_hvi(m, d, QuadraticPotential(b=0.5))

    def test_deterministic_reports(self):
        m = generate_unit_square_mesh(6)
        d = ProblemData.make(m, g=-0.3, q=0.1, b=1.0, alpha=3.0)
        p = ExpQuadraticPotential(b=1.0)
        r1, r2 = solve_hvi(m, d, p), solve_hvi(m, d, p)
        assert np.array_equal(r1.solution.values, r2.solution.values)
        assert r1.certificate == r2.certificate
        assert r1.iterations == r2.iterations

    def test_multistart_agreement_under_smallness(self):
        m = generate_unit_square_mesh(4)
        d = ProblemData.make(m, g=-0.5, q=0.2, b=1.0, alpha=0.3)
        p = ExpQuadraticPotential(b=1.0)
        rng = np.random.default_rng(9)
        baseline = solve_hvi(m, d, p).solution.values
        for _ in range(3):
            rep = solve_hvi(m, d, p, initial=rng.uniform(-2, 2, m.num_vertices))
            assert rep.converged
            assert np.max(np.abs(rep.solution.values - baseline)) <= 1e-6

    @pytest.mark.parametrize("length", [24, 26])
    def test_initial_field_of_wrong_length_rejected(self, length):
        m = generate_unit_square_mesh(4)
        d = ProblemData.make(m, g=-0.5, q=0.2, b=1.0, alpha=0.3)
        with pytest.raises(ValueError, match=rf"\({length},\).* 25 vertices"):
            solve_hvi(m, d, ExpQuadraticPotential(b=1.0), initial=np.zeros(length))

    @pytest.mark.parametrize("pid", potential_ids())
    def test_robustness_matrix_certifies(self, pid):
        m = generate_unit_square_mesh(16)
        opts = SolverOptions(max_iters=300)
        failed = []
        for g, q, b, alpha in GRID:
            data = ProblemData.make(m, g=g, q=q, b=b, alpha=alpha)
            rep = solve_hvi(m, data, make_potential(pid, b=b), opts)
            if not rep.converged:
                failed.append((g, q, b, alpha, rep.certificate))
        assert failed == []

    def test_kinks_that_no_double_represents_certify(self):
        # the kinks 1.5 -/+ 0.3 round to doubles that lie not exactly r0 from
        # the anchor; at a node pinned on one, the certificate still needs the
        # hull of both slopes
        m = generate_unit_square_mesh(16)
        opts = SolverOptions(max_iters=300)
        for g, q, alpha in ((-4.0, 0.0, 10.0), (-1.0, 1.0, 10.0), (4.0, 1.0, 1.0)):
            data = ProblemData.make(m, g=g, q=q, b=1.5, alpha=alpha)
            p = make_potential("truncated_quadratic", b=1.5, m1=-1.0, r0=0.3)
            assert solve_hvi(m, data, p, opts).converged, (g, q, alpha)

    @pytest.mark.parametrize(
        "pid", [pid for pid in potential_ids() if np.isfinite(make_potential(pid).m_j)]
    )
    def test_solution_invariant_under_renumbering(self, pid):
        base = generate_unit_square_mesh(8)
        rng = np.random.default_rng(17)
        perm = rng.permutation(base.num_vertices)
        vertices = np.empty_like(base.vertices)
        vertices[perm] = base.vertices
        renumbered = Mesh(
            vertices=vertices,
            triangles=perm[base.triangles],
            boundary_edges=perm[base.boundary_edges],
            boundary_tags=base.boundary_tags,
        )
        loaded = load_mesh(save_mesh(renumbered))
        # only where the smallness margin is positive is the solution unique
        gamma_sq = trace_constant(base)
        cases = [
            (g, q, b, alpha)
            for g, q, b in sorted({case[:3] for case in GRID})
            for alpha in (0.3, 1.0, 10.0, 100.0)
            if 1.0 - alpha * make_potential(pid).m_j * gamma_sq > 0.0
        ]
        assert cases
        for g, q, b, alpha in cases:
            p = make_potential(pid, b=b)
            u = solve_hvi(base, ProblemData.make(base, g=g, q=q, b=b, alpha=alpha), p)
            v = solve_hvi(loaded, ProblemData.make(loaded, g=g, q=q, b=b, alpha=alpha), p)
            assert u.converged and v.converged
            assert np.max(np.abs(v.solution.values[perm] - u.solution.values)) <= 1e-8


def test_two_certified_fields_where_smallness_fails():
    # min_quadratics has m_j = inf: each parabola taken at every G3 node is a
    # Robin problem with coefficient alpha k, and both fields certify
    m = generate_unit_square_mesh(16)
    p = make_potential("min_quadratics", b=1.0)  # k1 = 1 outside, k2 = 3 inside
    d = ProblemData.make(m, g=-4.0, q=0.0, b=1.0, alpha=1.0)
    g3 = gamma3_nodes(m)
    traces = []
    for k in (1.0, 3.0):
        branch = ProblemData.make(m, g=-4.0, q=0.0, b=1.0, alpha=k)
        u = solve_robin(m, branch, boundary_mass="lumped").solution.values
        cert = check_certificate(m, d, p, u)
        assert cert.interior_residual_max <= 1e-9 and cert.gamma3_inclusion_max <= 1e-8
        traces.append(u)
    assert np.all(np.abs(traces[0][g3] - 1.0 + 1.50) <= 0.01)
    assert np.all(np.abs(traces[1][g3] - 1.0 + 0.75) <= 0.01)
    rep = solve_hvi(m, d, p)
    assert rep.converged
    assert np.max(np.abs(rep.solution.values - traces[0])) <= 1e-8


class TestCertificate:
    def test_certified_output_below_tolerances(self):
        m = generate_unit_square_mesh(8)
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=10.0)
        p = ExpQuadraticPotential(b=1.0)
        rep = solve_hvi(m, d, p)
        cert = check_certificate(m, d, p, rep.solution)
        assert cert.interior_residual_max <= 1e-9
        assert cert.gamma3_inclusion_max <= 1e-8

    def test_perturbing_boundary_node_breaks_inclusion(self):
        m = generate_unit_square_mesh(4)
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=10.0)
        p = ExpQuadraticPotential(b=1.0)
        u = solve_hvi(m, d, p).solution.values.copy()
        u[gamma3_nodes(m)[1]] += 1.0
        cert = check_certificate(m, d, p, u)
        assert cert.gamma3_inclusion_max > 1e-3

    @pytest.mark.parametrize("pid", potential_ids())
    def test_certified_field_perturbed_at_one_node_fails(self, pid):
        # g = 4 lifts the trace above the datum, onto the laws' outer branches
        m = generate_unit_square_mesh(8)
        d = ProblemData.make(m, g=4.0, q=1.0, b=0.5, alpha=10.0)
        p = make_potential(pid, b=0.5)
        rep = solve_hvi(m, d, p)
        assert rep.converged
        u = rep.solution.values.copy()
        u[gamma3_nodes(m)[4]] += 1e-6
        assert not check_certificate(m, d, p, u).within(SolverOptions())

    def test_dirichlet_candidate_residual_decays_with_alpha(self):
        m = generate_unit_square_mesh(8)
        p = ExpQuadraticPotential(b=1.0)
        residuals = []
        for alpha in (10.0, 100.0, 1000.0):
            d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=alpha)
            u_inf = solve_dirichlet(m, d).solution.values
            cert = check_certificate(m, d, p, u_inf)
            assert cert.interior_residual_max <= 1e-12
            assert cert.gamma3_inclusion_max > 0.0
            residuals.append(cert.gamma3_inclusion_max)
        assert residuals[0] > residuals[1] > residuals[2]

    def test_soundness_along_random_directions(self):
        # a zero-certificate field satisfies the discrete inequality for all
        # test directions, by the max formula plus homogeneity/subadditivity
        m = generate_unit_square_mesh(8)
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=10.0)
        p = ExpQuadraticPotential(b=1.0)
        u = solve_hvi(m, d, p).solution.values
        A = assemble_stiffness(m)
        f = assemble_load(m, d)
        weights, _ = assemble_boundary_mass(m)
        g3 = gamma3_nodes(m)
        free = build_dof_map(m, "V0").free_indices
        rng = np.random.default_rng(12)
        for _ in range(200):
            v = np.zeros(m.num_vertices)
            v[free] = rng.uniform(-1.0, 1.0, len(free))
            lhs = u @ (A @ v) + d.alpha * np.sum(weights[g3] * p.j0(u[g3], v[g3]))
            assert lhs >= f @ v - 1e-7


class TestConvexVi:
    def test_matches_hvi_for_quadratic(self, tmp_path):
        # the ``vi`` problem kind runs the same solver as ``hvi``
        text = (
            "command = solve\nmesh.n = 8\nproblem.g = -0.5\nproblem.q = 0.3\nproblem.b = 1\n"
            "problem.alpha = 5\npotential.id = quadratic\nproblem.kind = "
        )
        for kind in ("vi", "hvi"):
            assert run(parse_config(text + kind), tmp_path / kind) == 0
        for name in ("solution.csv", "certificate.csv"):
            assert (tmp_path / "vi" / name).read_bytes() == (tmp_path / "hvi" / name).read_bytes()

    def test_abs_flat_region_pins_trace_to_anchor(self):
        m = generate_unit_square_mesh(6)
        d = ProblemData.make(m, g=-0.05, b=0.3, alpha=50.0)
        rep = solve_hvi(m, d, AbsPotential(b=0.3))
        assert rep.converged
        assert np.all(rep.solution.values[gamma3_nodes(m)] == 0.3)

    def test_zero_data_gives_zero(self):
        m = generate_unit_square_mesh(3)
        rep = solve_hvi(m, ProblemData.make(m, alpha=1.0), AbsPotential(b=0.0))
        assert rep.converged
        assert np.max(np.abs(rep.solution.values)) <= 1e-14


def test_solution_norms_match_assembled_forms():
    m = generate_unit_square_mesh(5)
    d = ProblemData.make(m, g=-1.0, b=1.0, alpha=2.0)
    rep = solve_robin(m, d)
    A = assemble_stiffness(m)
    u = rep.solution.values
    assert rep.solution.seminorm_v0**2 == pytest.approx(u @ (A @ u), rel=1e-10)
