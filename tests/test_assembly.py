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
    gamma3_mass,
    mesh_operators,
    mesh_report,
    v_norm,
)
from hviheat.hvi_solver import solve_dirichlet, solve_hvi, solve_robin, trace_constant
from hviheat.mesh import BoundaryTag, Mesh, generate_unit_square_mesh
from hviheat.potentials import make_potential
from hviheat.verification import verify_continuous_dependence
from oracles import coercivity_reference, trace_constant_reference, vertex_classes_reference


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
    c1, c2 = rng.standard_normal(3), rng.standard_normal(3)

    def q1(x, y):
        return c1[0] + c1[1] * x + c1[2] * np.sin(3.0 * y)

    def q2(x, y):
        return c2[0] * np.exp(x) + c2[1] * x * y + c2[2] * y**2

    f12 = assemble_load(m, ProblemData.make(m, g=g1 + g2, q=lambda x, y: q1(x, y) + q2(x, y)))
    f1 = assemble_load(m, ProblemData.make(m, g=g1, q=q1))
    f2 = assemble_load(m, ProblemData.make(m, g=g2, q=q2))
    assert np.allclose(f1 + f2, f12, atol=1e-12)


def test_flux_is_a_number_or_a_callable():
    m = generate_unit_square_mesh(2)
    with pytest.raises(ValueError, match="q must be a number or a callable"):
        ProblemData.make(m, q=np.ones(4))
    pairs = ProblemData.make(m, q=lambda x, y: x + 2.0 * y).q
    ends = m.vertices[m.edges_with_tag(BoundaryTag.GAMMA2)]
    assert np.array_equal(pairs, ends[:, :, 0] + 2.0 * ends[:, :, 1])
    assert np.array_equal(ProblemData.make(m, q=0.5).q, np.full((len(ends), 2), 0.5))


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


GATE_MESHES = {
    **{f"generated_{n}": (lambda n=n: generate_unit_square_mesh(n)) for n in (4, 8, 12, 16)},
    "renumbered_8": lambda: _renumbered(8, 8),
    "jittered_9": lambda: _jittered(9, 2),
    "jittered_12": lambda: _jittered(12, 5),
}


SYMMETRY_MESHES = {
    **{f"generated_{n}": (lambda n=n: generate_unit_square_mesh(n)) for n in range(1, 65)},
    **{f"renumbered_{n}": (lambda n=n: _renumbered(n, n)) for n in (3, 8, 17, 40)},
    **{f"jittered_{n}": (lambda n=n: _jittered(n, n)) for n in (5, 9, 23)},
    **{f"g3_on_top_{n}": (lambda n=n: _g3_on_top(n)) for n in (2, 6, 20)},
    **{f"g3_at_origin_{n}": (lambda n=n: _g3_at_origin(n)) for n in (3, 11)},
}


def test_stiffness_is_bitwise_symmetric():
    # the bulk factorization hands SuperLU the CSR bulk block as its transpose
    for name, build in SYMMETRY_MESHES.items():
        A = assemble_stiffness(build())
        assert (A != A.T).nnz == 0, name


class TestSmallnessGate:
    """``trace_constant`` and the ``continuous_dependence`` gate built on it."""

    @pytest.mark.parametrize("name", GATE_MESHES)
    def test_gate_matches_the_dense_pencil(self, name):
        m = GATE_MESHES[name]()
        expected = trace_constant_reference(m)
        assert abs(trace_constant(m) - expected) <= 1e-10 * expected
        alpha, p = 0.5, make_potential("exp_quadratic", b=1.0)  # m_j = 1
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=alpha)
        x, y = m.vertices[:, 0], m.vertices[:, 1]
        perturbed = [ProblemData(g=d.g + x * y, q=d.q, b=d.b, alpha=alpha)]
        rep = verify_continuous_dependence(m, d, p, perturbed)
        gate = next(c for c in rep.claims if c.claim == "smallness_condition")
        assert abs(gate.margin - (1.0 - alpha * expected)) <= 1e-10
        assert gate.verdict == "pass" and f"gamma_W^2={expected:.6g}, m_j=1" in gate.detail

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_boundary_of_the_condition_is_out_of_scope(self, n):
        # gamma_W^2 = 1 on the unit square, so alpha m_j = 1 has exact margin 0,
        # where the strict condition fails whichever way eigvalsh rounds
        m = generate_unit_square_mesh(n)
        p = make_potential("exp_quadratic", b=1.0)  # m_j = 1
        d = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=1.0)
        perturbed = [ProblemData(g=d.g + 0.1, q=d.q, b=d.b, alpha=1.0)]
        rep = verify_continuous_dependence(m, d, p, perturbed)
        gate = next(c for c in rep.claims if c.claim == "smallness_condition")
        assert gate.verdict == "scope" and -1e-10 < gate.margin <= 0.0

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_thresholds_are_ordered_on_the_unit_square(self, n):
        # the largest alpha m_j each sufficient condition allows: the mixed form
        # m_a > alpha m_j gamma^2, the V-norm form m_a > alpha m_j gamma_V^2, and
        # the energy form alpha m_j gamma_W^2 < 1 of the gate
        m = generate_unit_square_mesh(n)
        m_a, gamma = coercivity_reference(m)
        mixed = m_a / gamma**2
        v_form = m_a / trace_constant_reference(m, full_norm=True)
        energy = 1.0 / trace_constant(m)
        assert 0.71 < mixed < 0.72 and 0.93 < v_form < 0.94
        assert mixed < v_form < energy
        # u = x attains the bound: its trace is 1 on the unit-length G3, its energy 1
        assert abs(energy - 1.0) <= 1e-12

    def test_trace_bound_on_random_fields(self):
        m = generate_unit_square_mesh(5)
        gamma_sq = trace_constant(m)
        weights = assemble_boundary_mass(m)[0]
        A = assemble_stiffness(m)
        free = build_dof_map(m, "V0").free_indices
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = np.zeros(m.num_vertices)
            v[free] = rng.standard_normal(len(free))
            assert weights @ v**2 <= gamma_sq * (v @ (A @ v)) * (1.0 + 1e-12)


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
        # only a consistent Robin solve reads the consistent G3 mass, and it
        # is built once
        builds = []
        monkeypatch.setattr(
            hviheat.assembly, "assemble_boundary_mass",
            lambda mesh: builds.append(mesh) or assemble_boundary_mass(mesh),
        )
        data = ProblemData.make(m, g=-1.0, b=1.0, alpha=10.0)
        solve_hvi(m, data, make_potential("exp_quadratic", b=1.0))
        solve_hvi(m, data, make_potential("abs", b=1.0))  # the vi kind
        solve_dirichlet(m, data)
        solve_hvi(m, data, make_potential("quadratic", b=1.0))  # robin_lumped
        trace_constant(m)
        assert builds == []
        solve_robin(m, data)
        solve_robin(m, data)
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
            trace_constant(m)
            ops = mesh_operators(m)
            assert set(ops._derived) == {
                "bulk_factor", "g3_last_factor", "trace_reduction", "gamma3_mass", "trace_constant"
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
