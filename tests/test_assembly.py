import gc
import weakref

import numpy as np
import pytest

import hviheat.assembly
from hviheat.assembly import (
    AssemblyError,
    ProblemData,
    VertexClass,
    assemble_boundary_mass,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_dof_map,
    estimate_coercivity,
    gamma3_mass,
    mesh_operators,
    mesh_report,
    v_norm,
)
from hviheat.hvi_solver import solve_dirichlet, solve_hvi, solve_robin
from hviheat.mesh import BoundaryTag, Mesh, generate_unit_square_mesh
from hviheat.potentials import make_potential
from oracles import coercivity_reference, vertex_classes_reference


def test_two_triangle_stiffness_hand_assembled():
    # diag 1 everywhere, the two diagonal pairs uncoupled, square edges -1/2
    A = assemble_stiffness(generate_unit_square_mesh(1)).toarray()
    expected = np.array(
        [
            [1.0, -0.5, -0.5, 0.0],
            [-0.5, 1.0, 0.0, -0.5],
            [-0.5, 0.0, 1.0, -0.5],
            [0.0, -0.5, -0.5, 1.0],
        ]
    )
    assert np.allclose(A, expected, atol=1e-14)


def test_stiffness_annihilates_constants():
    A = assemble_stiffness(generate_unit_square_mesh(5))
    assert np.max(np.abs(A @ np.ones(A.shape[0]))) <= 1e-10


def test_affine_field_energy_exact():
    m = generate_unit_square_mesh(8)
    A = assemble_stiffness(m)
    u = m.vertices[:, 0]
    assert abs(u @ (A @ u) - 1.0) <= 1e-12


def test_galerkin_symmetry_on_random_vectors():
    m = generate_unit_square_mesh(6)
    A = assemble_stiffness(m)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.standard_normal(m.num_vertices)
        v = rng.standard_normal(m.num_vertices)
        lhs, rhs = u @ (A @ v), v @ (A @ u)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_degenerate_triangle_reported_with_index():
    m = generate_unit_square_mesh(1)
    vertices = m.vertices.copy()
    vertices[3] = vertices[0]  # collapses triangle 0 and 1
    with pytest.raises(AssemblyError, match="triangle 0"):
        assemble_stiffness(Mesh(vertices, m.triangles, m.boundary_edges, m.boundary_tags))


def test_load_zero_data():
    m = generate_unit_square_mesh(3)
    f = assemble_load(m, ProblemData.make(m))
    assert np.all(f == 0.0)


def test_load_constant_energy_sums_to_area():
    m = generate_unit_square_mesh(4)
    f = assemble_load(m, ProblemData.make(m, g=1.0))
    assert abs(f.sum() - 1.0) <= 1e-12


def test_load_unit_flux_sums_to_minus_gamma2_length():
    m = generate_unit_square_mesh(2)
    f = assemble_load(m, ProblemData.make(m, q=1.0))
    assert abs(f.sum() + 2.0) <= 1e-12


def test_load_additive_in_data():
    m = generate_unit_square_mesh(3)
    rng = np.random.default_rng(11)
    g1, g2 = rng.standard_normal(m.num_vertices), rng.standard_normal(m.num_vertices)
    q1, q2 = rng.standard_normal(6), rng.standard_normal(6)  # one constant per G2 edge
    f12 = assemble_load(m, ProblemData.make(m, g=g1 + g2, q=q1 + q2))
    f1 = assemble_load(m, ProblemData.make(m, g=g1, q=q1))
    f2 = assemble_load(m, ProblemData.make(m, g=g2, q=q2))
    assert np.allclose(f1 + f2, f12, atol=1e-12)


def test_flux_on_non_gamma2_edge_rejected():
    m = generate_unit_square_mesh(2)
    g1_edge = next(i for i, t in enumerate(m.boundary_tags) if t.value == "G1")
    with pytest.raises(ValueError, match="G2 only"):
        ProblemData.make(m, q={g1_edge: 1.0})


def test_boundary_mass_single_edge_closed_form():
    weights, consistent = assemble_boundary_mass(generate_unit_square_mesh(1))
    # the G3 boundary is the single unit edge between vertices 1 and 3
    block = consistent.toarray()[np.ix_([1, 3], [1, 3])]
    assert np.allclose(block, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-15)
    assert weights[1] == pytest.approx(0.5, abs=1e-15)
    assert weights[3] == pytest.approx(0.5, abs=1e-15)


def test_boundary_mass_total_weight():
    weights, _ = assemble_boundary_mass(generate_unit_square_mesh(4))
    assert abs(weights.sum() - 1.0) <= 1e-12
    assert np.all(weights[weights > 0] > 0)


def test_dof_map_counts_n2():
    m = generate_unit_square_mesh(2)
    v0 = build_dof_map(m, "V0")
    k0 = build_dof_map(m, "K0")
    assert len(v0.fixed_indices) == 3
    assert len(k0.fixed_indices) == 6
    assert v0.num_free + len(v0.fixed_indices) == m.num_vertices
    assert np.count_nonzero(v0.vertex_class == VertexClass.GAMMA3) == 3


def _renumbered(n: int, seed: int) -> Mesh:
    m = generate_unit_square_mesh(n)
    perm = np.random.default_rng(seed).permutation(m.num_vertices)
    vertices = np.empty_like(m.vertices)
    vertices[perm] = m.vertices
    return Mesh(vertices, perm[m.triangles], perm[m.boundary_edges], m.boundary_tags)


def _g3_on_top(n: int) -> Mesh:
    # G3 on y = 1 as well meets G1 (x = 0) at the declared vertex (0, 1)
    m = generate_unit_square_mesh(n)
    top = m.vertices[m.boundary_edges][:, :, 1].min(axis=1) == 1.0
    tags = tuple(BoundaryTag.GAMMA3 if t else tag for t, tag in zip(top, m.boundary_tags))
    return Mesh(m.vertices, m.triangles, m.boundary_edges, tags, interface_vertices=(n * (n + 1),))


def _g3_at_origin(n: int) -> Mesh:
    m = generate_unit_square_mesh(n)
    tags = (BoundaryTag.GAMMA3,) + m.boundary_tags[1:]  # vertex 0 is on a G1 edge too
    return Mesh(m.vertices, m.triangles, m.boundary_edges, tags, interface_vertices=(0,))


DOF_MESHES = {
    **{f"generated_{n}": (lambda n=n: generate_unit_square_mesh(n)) for n in range(1, 9)},
    **{f"renumbered_{n}": (lambda n=n: _renumbered(n, n)) for n in (1, 2, 5, 8)},
    **{f"g3_on_top_{n}": (lambda n=n: _g3_on_top(n)) for n in (1, 2, 6)},
    **{f"g3_at_origin_{n}": (lambda n=n: _g3_at_origin(n)) for n in (2, 3)},
}


@pytest.mark.parametrize("name", DOF_MESHES)
def test_dof_classes_match_the_mesh_vertex_sets(name):
    m = DOF_MESHES[name]()
    classes = vertex_classes_reference(m)
    v0, k0 = build_dof_map(m, "V0"), build_dof_map(m, "K0")
    for dof in (v0, k0):
        assert dof.vertex_class.dtype == classes.dtype
        assert np.array_equal(dof.vertex_class, classes)
    assert np.array_equal(v0.fixed, classes == VertexClass.GAMMA1)
    assert np.array_equal(k0.fixed, classes != VertexClass.FREE)
    if m.interface_vertices:  # the declared corner is a G1 vertex
        assert np.all(classes[list(m.interface_vertices)] == VertexClass.GAMMA1)


def test_dof_map_rejects_unknown_space():
    with pytest.raises(ValueError):
        build_dof_map(generate_unit_square_mesh(2), "H1")


def test_problem_data_validation():
    m = generate_unit_square_mesh(2)
    with pytest.raises(ValueError, match="alpha"):
        ProblemData.make(m, alpha=-1.0)
    d = ProblemData.make(m, g=0.5, q=-1.0, b=-2.0, alpha=1.0)
    violations = d.sign_violations()
    assert len(violations) == 3


def _jittered(n: int, seed: int) -> Mesh:
    """``_renumbered(n, seed)`` with its interior vertices moved by up to 0.3 h."""
    m = _renumbered(n, seed)
    rng = np.random.default_rng(seed)
    interior = np.all((m.vertices > 0.0) & (m.vertices < 1.0), axis=1)
    shift = rng.uniform(-0.3 / n, 0.3 / n, size=(int(interior.sum()), 2))
    vertices = m.vertices.copy()
    vertices[interior] += shift
    return Mesh(vertices, m.triangles, m.boundary_edges, m.boundary_tags)


COERCIVITY_MESHES = {
    **{f"generated_{n}": (lambda n=n: generate_unit_square_mesh(n)) for n in (4, 8, 16)},
    "renumbered_8": lambda: _renumbered(8, 8),
    "jittered_9": lambda: _jittered(9, 2),
    "jittered_12": lambda: _jittered(12, 5),
}


class TestCoercivity:
    @pytest.mark.parametrize("name", COERCIVITY_MESHES)
    def test_matches_the_dense_eigenproblems(self, name):
        m = COERCIVITY_MESHES[name]()
        est = estimate_coercivity(m)
        m_a, gamma_norm = coercivity_reference(m)
        assert abs(est.m_a - m_a) <= 1e-10 * m_a
        assert abs(est.gamma_norm - gamma_norm) <= 1e-10 * gamma_norm

    def test_unshifted_pencil_converges_in_a_few_steps(self):
        est = estimate_coercivity(generate_unit_square_mesh(16))
        assert est.iterations_m_a <= 10
        assert est.iterations_gamma == 2

    def test_constants_in_expected_ranges(self):
        est = estimate_coercivity(generate_unit_square_mesh(4))
        assert 0.0 < est.m_a < 1.0
        assert est.gamma_norm > 0.0

    def test_mesh_stability(self):
        e4 = estimate_coercivity(generate_unit_square_mesh(4))
        e8 = estimate_coercivity(generate_unit_square_mesh(8))
        assert abs(e4.m_a - e8.m_a) <= 0.1 * e8.m_a
        assert abs(e4.gamma_norm - e8.gamma_norm) <= 0.1 * e8.gamma_norm

    def test_trace_norm_is_one_on_unit_square(self):
        # the affine field x attains the trace bound exactly on this geometry
        est = estimate_coercivity(generate_unit_square_mesh(6))
        assert abs(est.gamma_norm - 1.0) <= 1e-6

    def test_discrete_coercivity_on_random_fields(self):
        m = generate_unit_square_mesh(5)
        est = estimate_coercivity(m)
        A = assemble_stiffness(m)
        M = assemble_mass(m)
        free = build_dof_map(m, "V0").free_indices
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = np.zeros(m.num_vertices)
            v[free] = rng.standard_normal(len(free))
            energy = v @ (A @ v)
            full = energy + v @ (M @ v)
            assert energy >= est.m_a * full - 1e-10

    def test_trace_bound_on_random_fields(self):
        m = generate_unit_square_mesh(5)
        est = estimate_coercivity(m)
        _, mg3 = assemble_boundary_mass(m)
        A = assemble_stiffness(m)
        free = build_dof_map(m, "V0").free_indices
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = np.zeros(m.num_vertices)
            v[free] = rng.standard_normal(len(free))
            trace_sq = v @ (mg3 @ v)
            assert trace_sq <= est.gamma_norm**2 * (v @ (A @ v)) * (1.0 + 1e-6)

    def test_product_bound(self):
        est = estimate_coercivity(generate_unit_square_mesh(4))
        assert est.gamma_norm**2 * est.m_a <= 1.0 + 1e-10

    def test_iteration_cap_reports_last_estimate(self):
        from hviheat.assembly import ConvergenceError

        with pytest.raises(ConvergenceError) as err:
            estimate_coercivity(generate_unit_square_mesh(4), max_iters=2)
        assert np.isfinite(err.value.last_estimate)


def test_v_norm_matches_quadratic_form():
    m = generate_unit_square_mesh(4)
    A, M = assemble_stiffness(m), assemble_mass(m)
    v = m.vertices[:, 0] * m.vertices[:, 1]
    expected = np.sqrt(v @ (A @ v) + v @ (M @ v))
    assert v_norm(A, M, v) == pytest.approx(expected, rel=1e-15)


class TestMeshOperators:
    def test_built_once_per_mesh_and_matching_direct_assembly(self, monkeypatch):
        m = generate_unit_square_mesh(3)
        ops = mesh_operators(m)
        assert mesh_operators(m) is ops
        assert (ops.stiffness != assemble_stiffness(m)).nnz == 0
        assert (ops.mass != assemble_mass(m)).nnz == 0
        weights, consistent = assemble_boundary_mass(m)
        assert ops.gamma3_weights.tobytes() == weights.tobytes()
        # only a consistent Robin solve and estimate_coercivity read the
        # consistent G3 mass, and between them it is built once
        builds = []
        monkeypatch.setattr(
            hviheat.assembly, "assemble_boundary_mass",
            lambda mesh: builds.append(mesh) or assemble_boundary_mass(mesh),
        )
        data = ProblemData.make(m, g=-1.0, b=1.0, alpha=10.0)
        solve_hvi(m, data, make_potential("exp_quadratic", b=1.0))
        solve_hvi(m, data, make_potential("abs", b=1.0))  # the vi kind
        solve_dirichlet(m, data)
        solve_robin(m, data, boundary_mass="lumped")
        assert builds == []
        solve_robin(m, data)
        estimate_coercivity(m)
        assert builds == [m]
        mg3 = gamma3_mass(m)
        assert gamma3_mass(m) is mg3 and builds == [m]
        for name in ("data", "indices", "indptr"):
            assert getattr(mg3, name).tobytes() == getattr(consistent, name).tobytes()
            with pytest.raises(ValueError):
                getattr(mg3, name)[0] = 0
        assert ops.gamma3_weights.tobytes() == weights.tobytes()
        classes = build_dof_map(m, "V0").vertex_class
        assert np.array_equal(ops.bulk, np.nonzero(classes == VertexClass.FREE)[0])
        assert np.array_equal(ops.gamma3, np.nonzero(classes == VertexClass.GAMMA3)[0])
        # the Dirichlet (K0) fixed set is everything outside the bulk
        fixed = build_dof_map(m, "K0").fixed_indices
        assert np.array_equal(np.setdiff1d(np.arange(m.num_vertices), ops.bulk), fixed)
        # an equal but distinct mesh gets its own bundle
        assert mesh_operators(generate_unit_square_mesh(3)) is not ops

    def test_members_are_read_only(self):
        ops = mesh_operators(generate_unit_square_mesh(2))
        with pytest.raises(ValueError):
            ops.stiffness.data[0] = 0.0
        with pytest.raises(ValueError):
            ops.gamma3_weights[0] = 0.0
        with pytest.raises(ValueError):
            ops.bulk[0] = 0

    def test_bundle_holds_no_reference_to_its_mesh(self):
        # with the cyclic collector off, a bundle-to-mesh cycle would keep both alive
        m = generate_unit_square_mesh(3)
        ref = weakref.ref(m)
        enabled = gc.isenabled()
        gc.disable()
        try:
            solve_robin(m, ProblemData.make(m, g=-1.0, b=1.0, alpha=10.0))
            estimate_coercivity(m)
            ops = mesh_operators(m)
            assert set(ops._derived) == {
                "bulk_factor", "g3_last_factor", "trace_reduction", "gamma3_mass"
            }
            del m, ops
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_lazy_members_are_built_once(self):
        ops = mesh_operators(generate_unit_square_mesh(2))
        builds = []
        first = ops.once("probe", lambda: builds.append(1) or object())
        assert ops.once("probe", lambda: builds.append(1) or object()) is first
        assert builds == [1]

    def test_invalid_mesh_keeps_its_report_and_refuses_assembly(self):
        m = generate_unit_square_mesh(2)
        tags = tuple(
            BoundaryTag.GAMMA2 if t == BoundaryTag.GAMMA3 else t for t in m.boundary_tags
        )
        bad = Mesh(m.vertices, m.triangles, m.boundary_edges, tags)
        assert mesh_report(bad) == ("G3 empty: every boundary portion must have positive measure",)
        with pytest.raises(AssemblyError, match="invalid mesh: G3 empty"):
            assemble_load(bad, ProblemData.make(bad))
        with pytest.raises(AssemblyError, match="invalid mesh"):
            mesh_operators(bad)
