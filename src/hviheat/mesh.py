"""Triangulated 2D domains with a three-part boundary decomposition.

The boundary of every mesh is split into three tagged portions:

* ``G1`` -- homogeneous Dirichlet portion (temperature fixed at zero),
* ``G2`` -- prescribed-flux portion,
* ``G3`` -- heat-exchange portion carrying the Robin coefficient or the
  multivalued subdifferential law.

Each portion must be nonempty (it must have positive length), and every
connected component of the triangulation must touch G1, so the temperature
is fixed somewhere in each.  Meshes are immutable after construction (their
arrays are read-only copies), but a mesh keeps its lazily built operators,
so it must not be used from two threads at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import compress

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "BoundaryTag",
    "Mesh",
    "MeshFormatError",
    "generate_unit_square_mesh",
    "validate_mesh",
    "load_mesh",
    "save_mesh",
]


class BoundaryTag(Enum):
    """Tag of a boundary edge; values match the mesh text format."""

    GAMMA1 = "G1"
    GAMMA2 = "G2"
    GAMMA3 = "G3"


_TAG_BY_NAME = {t.value: t for t in BoundaryTag}
# The int8 code of each tag in ``Mesh``'s per-edge tag codes; an entry that
# is not a ``BoundaryTag`` gets -1, and a query that is not one -2, so it
# matches no edge.
_TAG_CODE = {t: code for code, t in enumerate(BoundaryTag)}


class MeshFormatError(ValueError):
    """Mesh text could not be parsed.  ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class Mesh:
    """A straight-edged triangulation with tagged boundary edges.

    Attributes
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates (dimensionless).
    triangles : (nt, 3) int array
        Vertex indices per triangle, counterclockwise.
    boundary_edges : (ne, 2) int array
        Endpoint indices of each boundary edge.
    boundary_tags : tuple of BoundaryTag, length ne
        Tag of each boundary edge.
    interface_vertices : tuple of int
        Vertices declared as legitimate meeting points of the G1 and G3
        portions.  On such vertices the Dirichlet-dominant rule applies.

    The arrays are copied at construction and read-only, so everything
    derived from a mesh stays valid for its lifetime.  So are the int8 code
    of each boundary edge's tag, which ``edges_with_tag`` compares, built at
    construction, and the triangle areas, computed on first use.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: tuple[BoundaryTag, ...]
    interface_vertices: tuple[int, ...] = ()
    # the operator bundle of ``hviheat.assembly.mesh_operators``, built on
    # first use and freed with the mesh
    _operators: object = field(default=None, init=False, repr=False)
    _tag_codes: np.ndarray = field(default=None, init=False, repr=False)
    _areas: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name, dtype in (("vertices", float), ("triangles", np.int64), ("boundary_edges", np.int64)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "boundary_tags", tuple(self.boundary_tags))
        codes = np.array([_TAG_CODE.get(t, -1) for t in self.boundary_tags], dtype=np.int8)
        codes.setflags(write=False)
        object.__setattr__(self, "_tag_codes", codes)
        interface = tuple(int(v) for v in self.interface_vertices)
        object.__setattr__(self, "interface_vertices", interface)

    # -- basic counts -----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_boundary_edges(self) -> int:
        return self.boundary_edges.shape[0]

    # -- derived geometry -------------------------------------------------

    def triangle_areas(self) -> np.ndarray:
        """Signed areas; positive for the stored counterclockwise orientation.

        Computed on the first call and kept, read-only.
        """
        if self._areas is None:
            p = self.vertices[self.triangles]
            d1 = p[:, 1] - p[:, 0]
            d2 = p[:, 2] - p[:, 0]
            areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
            areas.setflags(write=False)
            object.__setattr__(self, "_areas", areas)
        return self._areas

    def edges_with_tag(self, tag: BoundaryTag) -> np.ndarray:
        """Boundary edges carrying ``tag`` as an (n, 2) index array."""
        return self.boundary_edges[self._tag_codes == _TAG_CODE.get(tag, -2)]

    def edge_lengths(self, edges: np.ndarray) -> np.ndarray:
        d = self.vertices[edges[:, 1]] - self.vertices[edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    def vertices_incident_to(self, tag: BoundaryTag) -> np.ndarray:
        """Sorted vertex indices touched by at least one edge of ``tag``."""
        edges = self.edges_with_tag(tag)
        return np.unique(edges) if len(edges) else np.empty(0, dtype=np.int64)

    def gamma1_vertices(self) -> np.ndarray:
        """Vertices of the Dirichlet portion (dominant at corners)."""
        return self.vertices_incident_to(BoundaryTag.GAMMA1)

    def gamma3_vertices(self) -> np.ndarray:
        """G3 vertices under the Dirichlet-dominant corner rule.

        A vertex incident to any G1 edge counts as a G1 vertex; of the
        remaining vertices, those incident to a G3 edge are G3 vertices.
        Essential conditions must win at corners for conforming P1 spaces.
        """
        return np.setdiff1d(
            self.vertices_incident_to(BoundaryTag.GAMMA3), self.gamma1_vertices()
        )

    # -- structural equality ------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mesh):
            return NotImplemented
        return (
            np.array_equal(self.vertices, other.vertices)
            and np.array_equal(self.triangles, other.triangles)
            and np.array_equal(self.boundary_edges, other.boundary_edges)
            and self.boundary_tags == other.boundary_tags
            and self.interface_vertices == other.interface_vertices
        )


def generate_unit_square_mesh(n: int) -> Mesh:
    """Structured triangulation of the unit square with n x n cells.

    Vertices are laid out row-major, vertex ``j*(n+1)+i`` at ``(i/n, j/n)``.
    Each cell is split along the diagonal from its lower-left to its
    upper-right corner, which keeps the triangulation deterministic for
    byte-stable regression outputs.  Tags: G1 on ``x=0``, G3 on ``x=1``,
    G2 on ``y=0`` and ``y=1``.

    Raises
    ------
    ValueError
        If ``n < 1``.
    """
    if n < 1:
        raise ValueError(f"mesh subdivision must be a positive integer, got {n}")

    side = np.arange(n + 1, dtype=float) / n
    xs, ys = np.meshgrid(side, side)  # row-major: y varies along axis 0
    vertices = np.column_stack([xs.ravel(), ys.ravel()])

    vid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)  # vertex (i/n, j/n) is vid[j, i]
    v00, v10 = vid[:-1, :-1].ravel(), vid[:-1, 1:].ravel()
    v01, v11 = vid[1:, :-1].ravel(), vid[1:, 1:].ravel()
    triangles = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)

    edges = np.concatenate(
        [
            np.column_stack([vid[0, :-1], vid[0, 1:]]),  # bottom y=0: flux
            np.column_stack([vid[n, :-1], vid[n, 1:]]),  # top y=1: flux
            np.column_stack([vid[:-1, 0], vid[1:, 0]]),  # left x=0: Dirichlet
            np.column_stack([vid[:-1, n], vid[1:, n]]),  # right x=1: exchange boundary
        ]
    )
    tags = [BoundaryTag.GAMMA2] * (2 * n) + [BoundaryTag.GAMMA1] * n + [BoundaryTag.GAMMA3] * n
    return Mesh(vertices, triangles, edges, tuple(tags))


def _edge_keys(pairs: np.ndarray, nv: int) -> np.ndarray:
    """Encode vertex pairs as ``lo * nv + hi`` (endpoints sorted)."""
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return lo * nv + hi


def _key_pair(key, nv: int) -> tuple[int, int]:
    return int(key) // nv, int(key) % nv


def validate_mesh(mesh: Mesh) -> list[str]:
    """Check all mesh invariants; returns one message per violation.

    An empty report means the mesh is valid.  This never raises: it is a
    diagnostic, each message names the offending entity.
    """
    report: list[str] = []
    nv = mesh.num_vertices
    tris = mesh.triangles.reshape(-1, 3)
    edges = mesh.boundary_edges.reshape(-1, 2)

    out_of_range = (tris < 0) | (tris >= nv)
    if out_of_range.any():
        for t in np.nonzero(out_of_range.any(axis=1))[0]:
            bad = tris[t, np.argmax(out_of_range[t])]
            report.append(f"triangle {int(t)} references out-of-range vertex {int(bad)}")
        return report  # geometry checks below would be meaningless

    out_of_range = (edges < 0) | (edges >= nv)
    if out_of_range.any():
        for e in np.nonzero(out_of_range.any(axis=1))[0]:
            report.append(f"boundary edge {int(e)} references an out-of-range vertex")
        return report

    for v in np.nonzero(~np.isfinite(mesh.vertices).all(axis=1))[0]:
        report.append(f"vertex {int(v)} has non-finite coordinates")

    with np.errstate(invalid="ignore", over="ignore"):  # non-finite vertices
        areas = mesh.triangle_areas()
    for t in np.nonzero(areas <= 0.0)[0]:
        report.append(f"triangle {int(t)} has non-positive signed area {areas[t]:.3e}")

    declared = _edge_keys(edges, nv)
    unique_declared, first = np.unique(declared, return_index=True)
    repeated = np.ones(len(declared), dtype=bool)
    repeated[first] = False
    for key in declared[repeated]:
        report.append(f"boundary edge {_key_pair(key, nv)} declared more than once")
    # an edge of exactly one triangle lies on the topological boundary
    tri_edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    keys, counts = np.unique(_edge_keys(tri_edges, nv), return_counts=True)
    topo = keys[counts == 1]
    if not np.array_equal(topo, unique_declared):  # both sorted: equal sets match exactly
        for key in np.setdiff1d(topo, unique_declared):
            report.append(f"topological boundary edge {_key_pair(key, nv)} carries no tag")
        for key in np.setdiff1d(unique_declared, topo):
            report.append(f"declared boundary edge {_key_pair(key, nv)} is not on the boundary")

    for tag in BoundaryTag:
        if tag not in mesh.boundary_tags:
            report.append(
                f"{tag.value} empty: every boundary portion must have positive measure"
            )

    g1 = mesh.vertices_incident_to(BoundaryTag.GAMMA1)
    shared = np.intersect1d(g1, mesh.vertices_incident_to(BoundaryTag.GAMMA3))
    allowed = np.asarray(mesh.interface_vertices, dtype=np.int64)
    for v in np.setdiff1d(shared, allowed):
        report.append(
            f"vertex {int(v)} carries both G1 and G3 tags but is not a declared interface vertex"
        )

    # components of the graph linking each triangle node to its three corner
    # vertices, each named by its smallest vertex; a vertex in no triangle is
    # a component of its own
    nt = len(tris)
    indptr = np.concatenate([np.zeros(nv, dtype=np.int64), np.arange(0, 3 * nt + 1, 3)])
    links = sp.csr_matrix((np.ones(3 * nt), tris.ravel(), indptr), shape=(nv + nt, nv + nt))
    count, labels = connected_components(links, connection="weak")
    has_g1 = np.zeros(count, dtype=bool)
    has_g1[labels[g1]] = True
    smallest = np.sort(np.unique(labels[:nv], return_index=True)[1])
    for v in smallest[~has_g1[labels[smallest]]]:
        report.append(f"the connected component of vertex {int(v)} has no G1 edge")

    return report


def save_mesh(mesh: Mesh) -> str:
    """Serialize a mesh to the line-oriented text format.

    The format round-trips exactly: coordinates are written with 17
    significant digits, so ``load_mesh(save_mesh(m)) == m``.  The optional
    ``interface`` section is written only when the mesh declares interface
    vertices.
    """
    lines = ["meshfmt 1", f"vertices {mesh.num_vertices}"]
    lines += _format_rows("%.17g %.17g", mesh.vertices)
    lines.append(f"triangles {mesh.num_triangles}")
    lines += _format_rows("%d %d %d", mesh.triangles)
    lines.append(f"boundary {mesh.num_boundary_edges}")
    for (i, j), tag in zip(mesh.boundary_edges.tolist(), mesh.boundary_tags):
        lines.append(f"{i} {j} {tag.value}")
    if mesh.interface_vertices:
        lines.append(f"interface {len(mesh.interface_vertices)}")
        lines.extend(str(v) for v in mesh.interface_vertices)
    return "\n".join(lines) + "\n"


_CHUNK_ROWS = 4096


def _format_rows(template: str, rows: np.ndarray) -> list[str]:
    """``template % row`` for each row of a 2-D array, one newline-joined text per chunk.

    One ``%`` renders a chunk's ``.tolist()``: a Python float's ``%.17g`` has
    the bytes of a numpy scalar's ``format``, and chunks bound the tuple.
    """
    chunks = (rows[i : i + _CHUNK_ROWS] for i in range(0, len(rows), _CHUNK_ROWS))
    return ["\n".join([template] * len(c)) % tuple(c.ravel().tolist()) for c in chunks]


# Per data section: fields per row, the row's shape, and what a row holds.
_ROWS = {
    "vertices": (2, "two coordinates 'x y'", "vertex coordinates 'x y'"),
    "triangles": (3, "three vertex indices 'i j k'", "triangle indices 'i j k'"),
    "boundary": (3, "boundary edge 'i j TAG'", "boundary edge 'i j TAG'"),
}


def _check_row(name: str, fields: list[str], lineno: int, nv: int) -> None:
    """Raise the error of a bad row of section ``name``; a good row passes."""
    width, shape, _ = _ROWS[name]
    if len(fields) != width:
        raise MeshFormatError(f"expected {shape}", lineno)
    if name == "vertices":
        try:
            float(fields[0]), float(fields[1])
        except ValueError:
            raise MeshFormatError(f"bad coordinate in {fields!r}", lineno) from None
        return
    try:
        indices = [int(f) for f in fields[: 3 if name == "triangles" else 2]]
    except ValueError:
        raise MeshFormatError(f"bad vertex index in {fields!r}", lineno) from None
    owner = "triangle" if name == "triangles" else "boundary edge"
    for v in indices:
        if v < 0 or v >= nv:
            raise MeshFormatError(
                f"{owner} references vertex index {v} out of range [0, {nv})", lineno
            )
    if name == "boundary" and fields[2] not in _TAG_BY_NAME:
        raise MeshFormatError(
            f"unknown boundary tag {fields[2]!r}, expected one of G1, G2, G3", lineno
        )


def _convert(name: str, fields: list[str], nv: int):
    """The fields of section ``name``'s rows, flat, as its arrays.

    numpy converts them with the semantics of Python's ``float`` and
    ``int``.  A field that does not convert, or an index out of range,
    raises ValueError, OverflowError or KeyError.
    """
    if name == "vertices":
        return np.array(fields, dtype=float).reshape(-1, 2)
    if name == "boundary":
        tags = tuple(_TAG_BY_NAME[tag] for tag in fields[2::3])
        del fields[2::3]
    indices = np.array(fields, dtype=np.int64).reshape(-1, 3 if name == "triangles" else 2)
    if indices.size and (indices.min() < 0 or indices.max() >= nv):
        raise ValueError("vertex index out of range")
    return indices if name == "triangles" else (indices, tags)


def load_mesh(text: str) -> Mesh:
    """Parse the mesh text format; raises MeshFormatError with a line number.

    The rows of each section are converted together; only when that fails
    are they checked one by one, so the error names the first bad line.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    kept = np.fromiter(map(bool, map(str.strip, lines)), bool, len(lines))
    rows = list(compress(lines, kept))
    linenos = (np.flatnonzero(kept) + 1).tolist()
    pos = 0

    def next_row(what: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(rows):
            last = linenos[-1] if rows else None
            raise MeshFormatError(f"unexpected end of file, expected {what}", last)
        pos += 1
        return linenos[pos - 1], rows[pos - 1].split()

    lineno, fields = next_row("header 'meshfmt 1'")
    if fields != ["meshfmt", "1"]:
        raise MeshFormatError("expected header 'meshfmt 1'", lineno)

    def section(name: str) -> int:
        if name == "boundary" and pos >= len(rows):
            raise MeshFormatError("boundary tags required", linenos[-1] if rows else None)
        lineno, fields = next_row(f"section '{name} N'")
        if len(fields) != 2 or fields[0] != name:
            if name == "boundary":
                raise MeshFormatError("boundary tags required", lineno)
            raise MeshFormatError(f"expected section '{name} N'", lineno)
        try:
            count = int(fields[1])
        except ValueError:
            raise MeshFormatError(f"bad {name} count {fields[1]!r}", lineno) from None
        if count < 0:
            raise MeshFormatError(f"negative {name} count", lineno)
        return count

    def rows_of(name: str, nv: int):
        """The converted rows of section ``name``, which starts at the next row."""
        nonlocal pos
        count = section(name)
        width, _, what = _ROWS[name]
        part = rows[pos : pos + count]
        fields = " | ".join(part).split()  # a "|" closes every row but the last
        ends = fields[width :: width + 1]
        try:
            # every end must be a row separator: a "|" inside a row fails the conversion
            if len(part) < count or len(fields) != count * width + len(ends) or (
                ends.count("|") != len(ends)
            ):
                raise ValueError("rows missing or of the wrong width")
            del fields[width :: width + 1]
            out = _convert(name, fields, nv)
        except (ValueError, OverflowError, KeyError):
            for _ in range(count):
                lineno, fields = next_row(what)
                _check_row(name, fields, lineno, nv)
            return _convert(name, [f for row in part for f in row.split()], nv)
        pos += count
        return out

    vertices = rows_of("vertices", 0)
    nv = len(vertices)
    triangles = rows_of("triangles", nv)
    edges, tags = rows_of("boundary", nv)

    interface: list[int] = []
    if pos < len(rows) and rows[pos].split()[0] == "interface":
        for _ in range(section("interface")):
            lineno, fields = next_row("interface vertex index")
            if len(fields) != 1 or not fields[0].isdecimal() or int(fields[0]) >= nv:
                raise MeshFormatError(
                    f"expected one interface vertex index in [0, {nv}), got {fields!r}", lineno
                )
            interface.append(int(fields[0]))

    if pos != len(rows):
        raise MeshFormatError("trailing content after the last section", linenos[pos])

    return Mesh(vertices, triangles, edges, tags, interface_vertices=tuple(interface))
