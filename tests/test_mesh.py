import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hviheat.assembly
from hviheat.cli import _solution_csv, main
from hviheat.mesh import (
    _CHUNK_ROWS,
    BoundaryTag,
    Mesh,
    MeshFormatError,
    generate_unit_square_mesh,
    load_mesh,
    save_mesh,
    validate_mesh,
)
from oracles import (
    load_mesh_reference,
    save_mesh_reference,
    solution_csv_reference,
    validate_mesh_reference,
)


def tag_counts(mesh):
    return {tag: sum(1 for t in mesh.boundary_tags if t == tag) for tag in BoundaryTag}


def test_smallest_mesh():
    m = generate_unit_square_mesh(1)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert m.num_boundary_edges == 4
    counts = tag_counts(m)
    assert counts[BoundaryTag.GAMMA1] == 1
    assert counts[BoundaryTag.GAMMA2] == 2
    assert counts[BoundaryTag.GAMMA3] == 1


def test_counts_n2():
    m = generate_unit_square_mesh(2)
    assert m.num_vertices == 9
    assert m.num_triangles == 8
    assert m.num_boundary_edges == 8


def test_total_area_n4():
    m = generate_unit_square_mesh(4)
    assert abs(m.triangle_areas().sum() - 1.0) <= 1e-12


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        generate_unit_square_mesh(0)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_structured_mesh_invariants(n):
    m = generate_unit_square_mesh(n)
    assert m.num_vertices == (n + 1) ** 2
    assert m.num_triangles == 2 * n * n
    assert m.num_boundary_edges == 4 * n
    counts = tag_counts(m)
    assert counts[BoundaryTag.GAMMA1] == n
    assert counts[BoundaryTag.GAMMA2] == 2 * n
    assert counts[BoundaryTag.GAMMA3] == n
    assert abs(m.triangle_areas().sum() - 1.0) <= 1e-12
    assert validate_mesh(m) == []


def test_gamma_vertex_classification():
    m = generate_unit_square_mesh(2)
    # the x=0 column is Dirichlet; the x=1 column belongs to the exchange side
    assert sorted(m.gamma1_vertices().tolist()) == [0, 3, 6]
    assert sorted(m.gamma3_vertices().tolist()) == [2, 5, 8]


def test_validate_clean():
    assert validate_mesh(generate_unit_square_mesh(3)) == []


def test_validate_flipped_triangle():
    m = generate_unit_square_mesh(2)
    tris = m.triangles.copy()
    tris[3] = tris[3][::-1]
    bad = Mesh(m.vertices, tris, m.boundary_edges, m.boundary_tags)
    report = validate_mesh(bad)
    assert any("triangle 3" in msg for msg in report)


def test_validate_missing_gamma3():
    m = generate_unit_square_mesh(2)
    tags = tuple(
        BoundaryTag.GAMMA2 if t == BoundaryTag.GAMMA3 else t for t in m.boundary_tags
    )
    report = validate_mesh(Mesh(m.vertices, m.triangles, m.boundary_edges, tags))
    assert any("G3 empty" in msg for msg in report)


def test_validate_conflicting_corner():
    m = generate_unit_square_mesh(1)
    # retag the bottom edge (vertices 0-1) as G3: vertex 0 is also on the G1 edge
    tags = list(m.boundary_tags)
    tags[0] = BoundaryTag.GAMMA3
    report = validate_mesh(Mesh(m.vertices, m.triangles, m.boundary_edges, tuple(tags)))
    assert any("vertex 0" in msg for msg in report)
    # declaring the vertex as an interface silences that violation
    ok = Mesh(
        m.vertices, m.triangles, m.boundary_edges, tuple(tags), interface_vertices=(0,)
    )
    assert not any("vertex 0" in msg for msg in validate_mesh(ok))


def test_validate_out_of_range_triangle():
    m = generate_unit_square_mesh(1)
    tris = m.triangles.copy()
    tris[1, 2] = 99
    report = validate_mesh(Mesh(m.vertices, tris, m.boundary_edges, m.boundary_tags))
    assert any("triangle 1" in msg and "99" in msg for msg in report)


def test_validate_undeclared_boundary_edge():
    m = generate_unit_square_mesh(1)
    report = validate_mesh(
        Mesh(m.vertices, m.triangles, m.boundary_edges[:-1], m.boundary_tags[:-1])
    )
    assert any("carries no tag" in msg for msg in report)


def test_validate_non_finite_vertex():
    m = generate_unit_square_mesh(2)
    vertices = m.vertices.copy()
    vertices[4] = (np.nan, 0.25)
    vertices[7, 1] = np.inf
    with warnings.catch_warnings():  # the areas of those triangles are computed quietly
        warnings.simplefilter("error")
        report = validate_mesh(Mesh(vertices, m.triangles, m.boundary_edges, m.boundary_tags))
    assert report[:2] == [
        "vertex 4 has non-finite coordinates",
        "vertex 7 has non-finite coordinates",
    ]


def _beside_an_island(retag) -> Mesh:
    """An n=2 unit square with a disjoint copy at x + 2 whose tags are retagged."""
    m = generate_unit_square_mesh(2)
    nv = m.num_vertices
    return Mesh(
        np.vstack([m.vertices, m.vertices + (2.0, 0.0)]),
        np.vstack([m.triangles, m.triangles + nv]),
        np.vstack([m.boundary_edges, m.boundary_edges + nv]),
        m.boundary_tags + tuple(retag(t) for t in m.boundary_tags),
    )


def _with_stray_vertex() -> Mesh:
    m = generate_unit_square_mesh(2)
    return Mesh(np.vstack([m.vertices, [(2.0, 2.0)]]), m.triangles, m.boundary_edges, m.boundary_tags)


# Each of these breaks the solvers: A_bb is singular on the G2-only island
# and at the stray vertex, and the coercivity estimate cannot converge with
# no Dirichlet edge on the G3 island.
MESHES_WITHOUT_G1 = {
    "g2_island": lambda: _beside_an_island(lambda t: BoundaryTag.GAMMA2),
    "g3_island": lambda: _beside_an_island(
        lambda t: BoundaryTag.GAMMA3 if t == BoundaryTag.GAMMA1 else t
    ),
    "stray_vertex": _with_stray_vertex,
}


@pytest.mark.parametrize("name", sorted(MESHES_WITHOUT_G1))
def test_component_without_g1_is_reported_and_a_mesh_file_exits_2(tmp_path, name):
    mesh = MESHES_WITHOUT_G1[name]()
    expected = "the connected component of vertex 9 has no G1 edge"
    assert validate_mesh(mesh) == validate_mesh_reference(mesh) == [expected]
    path = tmp_path / "island.mesh"
    path.write_text(save_mesh(mesh))
    config = tmp_path / "run.cfg"
    config.write_text(f"command = solve\nmesh.file = {path}\nproblem.kind = dirichlet\n")
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    payload = json.loads((tmp_path / "out" / "error.json").read_text())
    assert (payload["error"], payload["message"]) == (
        "ConfigError", f"mesh file {path}: {expected}"
    )


def test_mesh_arrays_are_read_only_copies():
    m = generate_unit_square_mesh(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 0.5
    with pytest.raises(ValueError):
        m.triangles[0, 0] = 1
    with pytest.raises(ValueError):
        m.boundary_edges[0, 0] = 1
    vertices = m.vertices.copy()
    copy = Mesh(vertices, m.triangles, m.boundary_edges, m.boundary_tags)
    vertices[0, 0] = 0.5  # the caller's array stays the caller's
    assert copy == m


def _corrupt(draw, n: int) -> Mesh:
    """A unit-square mesh with one to four random defects."""
    m = generate_unit_square_mesh(n)
    vertices = m.vertices.copy()
    tris = m.triangles.copy()
    edges = [tuple(e) for e in m.boundary_edges.tolist()]
    tags = list(m.boundary_tags)
    interface: list[int] = []
    nv = m.num_vertices
    kinds = st.sampled_from(
        ["flip", "drop", "duplicate", "spurious", "empty_tag", "shared", "retag",
         "interface", "non_finite", "tri_out_of_range", "edge_out_of_range"]
    )
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        if kind == "flip":
            t = draw(st.integers(0, len(tris) - 1))
            tris[t] = tris[t][::-1]
        elif kind == "drop" and edges:
            k = draw(st.integers(0, len(edges) - 1))
            del edges[k], tags[k]
        elif kind == "duplicate" and edges:
            k = draw(st.integers(0, len(edges) - 1))
            a, b = edges[k]
            edges.append((b, a) if draw(st.booleans()) else (a, b))
            tags.append(draw(st.sampled_from(list(BoundaryTag))))
        elif kind == "spurious":  # a triangle edge or any vertex pair
            for _ in range(draw(st.integers(1, 3))):
                t = draw(st.integers(0, len(tris) - 1))
                i = draw(st.integers(0, 2))
                pair = (int(tris[t][i]), int(tris[t][(i + 1) % 3]))
                if draw(st.booleans()):
                    pair = (draw(st.integers(0, nv - 1)), draw(st.integers(0, nv - 1)))
                edges.append(pair)
                tags.append(draw(st.sampled_from(list(BoundaryTag))))
        elif kind == "empty_tag":
            gone = draw(st.sampled_from(list(BoundaryTag)))
            into = draw(st.sampled_from([t for t in BoundaryTag if t != gone]))
            tags = [into if t == gone else t for t in tags]
        elif kind == "shared" and edges:
            # the bottom edge at the origin touches the G1 side
            k = edges.index((0, 1)) if (0, 1) in edges else 0
            tags[k] = BoundaryTag.GAMMA3
        elif kind == "retag" and edges:
            k = draw(st.integers(0, len(edges) - 1))
            tags[k] = draw(st.sampled_from(list(BoundaryTag)))
        elif kind == "interface":
            interface.append(draw(st.integers(0, nv - 1)))
        elif kind == "non_finite":
            v = draw(st.integers(0, nv - 1))
            vertices[v, draw(st.integers(0, 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        elif kind == "tri_out_of_range":
            t = draw(st.integers(0, len(tris) - 1))
            tris[t, draw(st.integers(0, 2))] = draw(st.sampled_from([-1, nv, nv + 5]))
        elif kind == "edge_out_of_range" and edges:
            k = draw(st.integers(0, len(edges) - 1))
            edges[k] = (edges[k][0], draw(st.sampled_from([-2, nv])))
    return Mesh(
        vertices,
        tris,
        np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        tuple(tags),
        interface_vertices=tuple(interface),
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_vectorized_validation_matches_reference(n, data):
    mesh = _corrupt(data.draw, n)
    assert validate_mesh(mesh) == validate_mesh_reference(mesh)


def test_reference_agrees_on_clean_meshes():
    for n in (1, 3, 8):
        m = generate_unit_square_mesh(n)
        assert validate_mesh(m) == validate_mesh_reference(m) == []


def test_roundtrip_identity():
    m = generate_unit_square_mesh(2)
    assert load_mesh(save_mesh(m)) == m


def test_roundtrip_interface_vertices():
    m = generate_unit_square_mesh(1)
    tags = list(m.boundary_tags)
    tags[0] = BoundaryTag.GAMMA3  # vertex 0 is on the G1 edge too
    # any integer sequence is kept as a tuple of ints
    corner = Mesh(m.vertices, m.triangles, m.boundary_edges, tags, interface_vertices=np.array([0]))
    assert corner.interface_vertices == (0,)
    text = save_mesh(corner)
    assert text.endswith("interface 1\n0\n")
    loaded = load_mesh(text)
    assert loaded == corner
    assert validate_mesh(loaded) == []
    # a mesh without interface vertices has no interface section
    assert "interface" not in save_mesh(m)


def test_roundtrip_irrational_coordinates():
    m = generate_unit_square_mesh(2)
    vertices = m.vertices + np.pi / 700.0  # exercises full-precision formatting
    shifted = Mesh(vertices, m.triangles, m.boundary_edges, m.boundary_tags)
    assert load_mesh(save_mesh(shifted)) == shifted


def _renumbered(n: int, seed: int) -> Mesh:
    m = generate_unit_square_mesh(n)
    perm = np.random.default_rng(seed).permutation(m.num_vertices)
    vertices = np.empty_like(m.vertices)
    vertices[perm] = m.vertices
    return Mesh(vertices, perm[m.triangles], perm[m.boundary_edges], m.boundary_tags)


def _with_vertices(m: Mesh, vertices) -> Mesh:
    return Mesh(vertices, m.triangles, m.boundary_edges, m.boundary_tags, m.interface_vertices)


def _jittered(n: int, seed: int) -> Mesh:
    m = _renumbered(n, seed)
    shift = np.random.default_rng(seed).uniform(-0.3, 0.3, m.vertices.shape) / n
    return _with_vertices(m, m.vertices + shift)


def _interface(n: int) -> Mesh:
    m = generate_unit_square_mesh(n)
    tags = list(m.boundary_tags)
    tags[0] = BoundaryTag.GAMMA3  # vertex 0 is on the G1 edge too
    return Mesh(m.vertices, m.triangles, m.boundary_edges, tags, interface_vertices=(0,))


_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 1 / 3, -1e-300, 1e22, 123456789.0, np.nan, np.inf, -np.inf]


def _special(n: int) -> Mesh:
    m = generate_unit_square_mesh(n)
    values = np.resize(np.array(_SPECIAL), m.vertices.size).reshape(m.vertices.shape)
    return _with_vertices(m, values)


def _rows(k: int) -> Mesh:
    """``k`` vertices and ``k`` triangles, no boundary: a writer's row counts, not a valid mesh."""
    rng = np.random.default_rng(k)
    vertices = rng.standard_normal((k, 2)) * 10.0 ** rng.integers(-20, 20, (k, 2))
    return Mesh(vertices, rng.integers(0, max(k, 1), (k, 3)), np.zeros((0, 2)), ())


WRITER_MESHES = {
    "generated_1": lambda: generate_unit_square_mesh(1),
    "generated_17": lambda: generate_unit_square_mesh(17),
    "renumbered_12": lambda: _renumbered(12, 5),
    "jittered_9": lambda: _jittered(9, 2),
    "jittered_66": lambda: _jittered(66, 8),  # 4,489 vertices and 8,712 triangles: 2 and 3 chunks
    "interface_3": lambda: _interface(3),
    "special_values": lambda: _special(4),
    **{f"rows_{k}": (lambda k=k: _rows(k)) for k in (0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1)},
}


@pytest.mark.parametrize("name", sorted(WRITER_MESHES))
def test_writers_match_the_per_value_references_byte_for_byte(name):
    mesh = WRITER_MESHES[name]()
    text = save_mesh(mesh)
    assert text == save_mesh_reference(mesh)
    loaded = load_mesh(text)
    # bit patterns, so NaN equals NaN and -0.0 stays -0.0; Mesh equality for the rest
    assert np.array_equal(loaded.vertices.view(np.int64), mesh.vertices.view(np.int64))
    blank = np.zeros_like(mesh.vertices)
    assert _with_vertices(loaded, blank) == _with_vertices(mesh, blank)
    if np.isfinite(mesh.vertices).all():
        assert loaded == mesh
    values = np.resize(np.array(_SPECIAL[::-1]), mesh.num_vertices)
    values[: mesh.num_vertices // 2] = np.linspace(-1.0, 1.0, mesh.num_vertices // 2)
    csv = _solution_csv(mesh, values)
    assert csv == solution_csv_reference(mesh, values)
    assert len(csv.splitlines()) == mesh.num_vertices + 1


def test_load_reports_out_of_range_vertex_line():
    text = "\n".join(
        [
            "meshfmt 1",
            "vertices 3",
            "0 0",
            "1 0",
            "0 1",
            "triangles 1",
            "0 1 7",
            "boundary 3",
            "0 1 G2",
            "1 2 G3",
            "2 0 G1",
        ]
    )
    with pytest.raises(MeshFormatError) as err:
        load_mesh(text)
    assert err.value.line == 7
    assert "out of range" in str(err.value)


def test_load_requires_boundary_section():
    text = "\n".join(["meshfmt 1", "vertices 3", "0 0", "1 0", "0 1", "triangles 1", "0 1 2"])
    with pytest.raises(MeshFormatError, match="boundary tags required"):
        load_mesh(text)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("meshfmt 2\n", "meshfmt 1"),
        ("meshfmt 1\nvertices 1\n0 0 0\n", "two coordinates"),
        (
            "meshfmt 1\nvertices 2\n0 0\n1 0\ntriangles 0\nboundary 1\n0 1 G9\n",
            "unknown boundary tag",
        ),
        (
            "meshfmt 1\nvertices 2\n0 0\n1 0\ntriangles 0\nboundary 0\nstray\n",
            "trailing content",
        ),
        (
            "meshfmt 1\nvertices 2\n0 0\n1 0\ntriangles 0\nboundary 0\ninterface 1\n2\n",
            "interface vertex index in \\[0, 2\\)",
        ),
        (
            "meshfmt 1\nvertices 2\n0 0\n1 0\ntriangles 0\nboundary 0\ninterface 1\n-1\n",
            "interface vertex index",
        ),
        (
            "meshfmt 1\nvertices 2\n0 0\n1 0\ntriangles 0\nboundary 0\ninterface 1\n0\n1\n",
            "trailing content",
        ),
    ],
)
def test_load_rejects_malformed_text(text, fragment):
    with pytest.raises(MeshFormatError, match=fragment):
        load_mesh(text)


def test_comments_and_blank_lines_ignored():
    m = generate_unit_square_mesh(1)
    text = "# header comment\n\n" + save_mesh(m).replace(
        "vertices 4", "vertices 4   # vertex table"
    )
    assert load_mesh(text) == m


def _read(reader, text):
    """The mesh ``reader`` makes of ``text`` (saved, so NaN compares equal), or its error."""
    try:
        return save_mesh(reader(text))
    except MeshFormatError as exc:
        return str(exc), exc.line


@st.composite
def mesh_texts(draw):
    """The text of a jittered structured mesh, maybe with an interface vertex."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = generate_unit_square_mesh(n)
    jitter = draw(st.floats(min_value=-0.1, max_value=0.1, allow_subnormal=False))
    vertices = m.vertices + jitter * np.sin(np.arange(2 * m.num_vertices)).reshape(-1, 2)
    interface = draw(st.sampled_from([(), (0,)]))
    mesh = Mesh(vertices, m.triangles, m.boundary_edges, m.boundary_tags, interface)
    return mesh, save_mesh(mesh).splitlines()


_NOISE = st.sampled_from(["", "   ", "# comment", "\t# tab then comment", "  # indented"])
_FIELDS = st.sampled_from(
    ["x", "1.5", "-1", "0", "2", "99999", "99999999999999999999", "nan", "1e400", "1_0",
     "\u0663", "+1", "G1", "G3", "G9", "|", "||", "1|", "#", "0x10", "interface", "vertices"]
)


@settings(max_examples=60, deadline=None)
@given(mesh_texts(), st.data())
def test_bulk_reader_matches_the_line_reader_on_valid_text(case, data):
    mesh, lines = case
    noisy = []
    for line in lines:
        noisy += data.draw(st.lists(_NOISE, max_size=2))
        noisy.append(line + data.draw(st.sampled_from(["", "  ", " # trailing", "\t"])))
    text = "\n".join(noisy) + data.draw(st.sampled_from(["", "\n", "\n\n# end\n"]))
    assert load_mesh(text) == load_mesh_reference(text) == mesh


@settings(max_examples=200, deadline=None)
@given(mesh_texts(), st.data())
def test_bulk_reader_matches_the_line_reader_on_corrupted_text(case, data):
    _, lines = case
    for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
        k = data.draw(st.integers(min_value=0, max_value=len(lines) - 1))
        fields = lines[k].split()
        how = data.draw(st.sampled_from(["replace", "drop", "add", "delete", "repeat"]))
        if not fields and how in ("replace", "drop"):
            how = "add"
        if how == "replace":
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(_FIELDS)
        elif how == "drop":
            del fields[data.draw(st.integers(0, len(fields) - 1))]
        elif how == "add":
            fields.insert(data.draw(st.integers(0, len(fields))), data.draw(_FIELDS))
        if how == "delete":
            del lines[k]
        elif how == "repeat":
            lines.insert(k, lines[k])
        else:
            lines[k] = " ".join(fields)
        if not lines:
            break
    text = "\n".join(lines) + "\n"
    assert _read(load_mesh, text) == _read(load_mesh_reference, text)


class TestPerMeshCaches:
    """Triangle areas and boundary-tag codes are computed once per mesh."""

    def test_areas_are_computed_once_and_read_only(self):
        m = generate_unit_square_mesh(4)
        areas = m.triangle_areas()
        assert not areas.flags.writeable
        with pytest.raises(ValueError):
            areas[0] = 1.0
        # validation and both assemblies read the same array
        assert validate_mesh(m) == []
        hviheat.assembly.mesh_operators(m)
        assert m.triangle_areas() is areas

    @pytest.mark.parametrize("name", ["generated", "retagged"])
    def test_edges_with_tag_matches_a_per_edge_scan(self, name):
        m = generate_unit_square_mesh(5)
        tags = list(m.boundary_tags)
        if name == "retagged":
            tags = [BoundaryTag.GAMMA3 if i % 3 == 0 else t for i, t in enumerate(tags)]
        mesh = Mesh(m.vertices, m.triangles, m.boundary_edges, tuple(tags))
        for tag in BoundaryTag:
            expected = m.boundary_edges[[i for i, t in enumerate(tags) if t == tag]]
            got = mesh.edges_with_tag(tag)
            assert got.shape == expected.shape and np.array_equal(got, expected)


def _untagged_topological_edge() -> Mesh:
    m = generate_unit_square_mesh(3)
    return Mesh(m.vertices, m.triangles, m.boundary_edges[1:], m.boundary_tags[1:])


def _declared_interior_edge() -> Mesh:
    m = generate_unit_square_mesh(3)
    edges = np.vstack([m.boundary_edges, [(5, 6)]])  # vertices 5 and 6 are interior
    return Mesh(m.vertices, m.triangles, edges, m.boundary_tags + (BoundaryTag.GAMMA2,))


def _undeclared_shared_vertex() -> Mesh:
    m = generate_unit_square_mesh(3)
    tags = (BoundaryTag.GAMMA3,) + m.boundary_tags[1:]  # edge 0-1 meets G1 at vertex 0
    return Mesh(m.vertices, m.triangles, m.boundary_edges, tags)


INVALID_MESHES = {
    "untagged_topological_edge": (_untagged_topological_edge, "topological boundary edge (0, 1) carries no tag"),
    "declared_interior_edge": (_declared_interior_edge, "declared boundary edge (5, 6) is not on the boundary"),
    "undeclared_shared_vertex": (
        _undeclared_shared_vertex,
        "vertex 0 carries both G1 and G3 tags but is not a declared interface vertex",
    ),
}


@pytest.mark.parametrize("name", INVALID_MESHES)
def test_invalid_meshes_keep_every_message(name):
    build, message = INVALID_MESHES[name]
    mesh = build()
    report = validate_mesh(mesh)
    assert message in report
    assert report == validate_mesh_reference(mesh)
