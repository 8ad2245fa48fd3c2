"""Independent reference implementations for the tests.

``validate_mesh_reference`` is the loop-based mesh validation the library
replaced with a vectorized one (with the non-finite coordinate and G1
connectivity checks added in the same loop style); the tests require
identical reports.
``load_mesh_reference`` is the line-by-line mesh reader the library replaced
with a bulk one; the tests require equal meshes and identical errors.
``save_mesh_reference`` and ``solution_csv_reference`` are the mesh and
``solution.csv`` writers that formatted one numpy scalar at a time; the
library renders chunks of rows with one ``%`` each, and the tests require
identical bytes.
``vertex_classes_reference`` classifies the vertices from the mesh's own G1
and G3 vertex sets; the library scatters the classes over the tagged edges.
``schur_reference`` builds the G3 Schur complement by one bulk back-solve per
G3 node, and ``robin_reference`` solves the Robin problem directly on the
free rows of ``A + alpha M``; the library gets both from the G3 trace.
``l2_norm_reference`` integrates a P1 field's square triangle by triangle,
without the assembled mass matrix.
``coercivity_reference`` gets the coercivity constant and the trace norm
from dense generalized eigenproblems, and ``trace_constant_reference`` the
sharp constant of the lumped G3 trace; the library gets the latter from the
Schur complement of its sparse factor.

The superpotential tables are closed forms for the built-in laws, and
``prox_reference`` minimizes the scalar proximal energy by brute force.
``relaxed_monotonicity_reference`` samples the relaxed-monotonicity constant
over pairs of grid points; the library derives it from the piece table.

Each function returns ``(lo, hi, j0_toward_anchor)`` for a scalar ``r``: the
subdifferential interval endpoints and the generalized directional
derivative in the direction ``b - r``, spelled out branch by branch.  These
are written directly from the defining piecewise formulas, not through the
library's interval machinery, and are compared exactly in the tests.

At a kink the directional derivative takes the larger of the two one-sided
slope pairings (the limsup definition); for the clamped quadratic at the
lower kink that is ``-r0 * (b - r)``, not the outer-slope pairing.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hviheat.assembly import (
    VertexClass,
    assemble_boundary_mass,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
)
from hviheat.mesh import BoundaryTag, Mesh, MeshFormatError
from hviheat.potentials import pair_grid


def _triangulation_boundary(mesh) -> set[tuple[int, int]]:
    """Edges belonging to exactly one triangle, as sorted vertex pairs."""
    count: dict[tuple[int, int], int] = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(min(a, b)), int(max(a, b)))
            count[key] = count.get(key, 0) + 1
    return {e for e, c in count.items() if c == 1}


def validate_mesh_reference(mesh) -> list[str]:
    """Loop-based mesh validation: one message per violation, in order."""
    report: list[str] = []
    nv = mesh.num_vertices

    if np.any(mesh.triangles < 0) or np.any(mesh.triangles >= nv):
        for t, tri in enumerate(mesh.triangles):
            bad = [int(v) for v in tri if v < 0 or v >= nv]
            if bad:
                report.append(f"triangle {t} references out-of-range vertex {bad[0]}")
        return report

    if np.any(mesh.boundary_edges < 0) or np.any(mesh.boundary_edges >= nv):
        for e, (a, b) in enumerate(mesh.boundary_edges):
            if a < 0 or a >= nv or b < 0 or b >= nv:
                report.append(f"boundary edge {e} references an out-of-range vertex")
        return report

    for v, (x, y) in enumerate(mesh.vertices):
        if not (np.isfinite(x) and np.isfinite(y)):
            report.append(f"vertex {v} has non-finite coordinates")

    with np.errstate(invalid="ignore", over="ignore"):
        areas = mesh.triangle_areas()
    for t in np.nonzero(areas <= 0.0)[0]:
        report.append(f"triangle {int(t)} has non-positive signed area {areas[t]:.3e}")

    declared = [(int(min(a, b)), int(max(a, b))) for a, b in mesh.boundary_edges]
    declared_set = set(declared)
    if len(declared) != len(declared_set):
        seen: set[tuple[int, int]] = set()
        for e in declared:
            if e in seen:
                report.append(f"boundary edge {e} declared more than once")
            seen.add(e)
    topo = _triangulation_boundary(mesh)
    for e in sorted(topo - declared_set):
        report.append(f"topological boundary edge {e} carries no tag")
    for e in sorted(declared_set - topo):
        report.append(f"declared boundary edge {e} is not on the boundary")

    for tag in BoundaryTag:
        if not any(t == tag for t in mesh.boundary_tags):
            report.append(
                f"{tag.value} empty: every boundary portion must have positive measure"
            )

    g1 = set(mesh.vertices_incident_to(BoundaryTag.GAMMA1).tolist())
    g3 = set(mesh.vertices_incident_to(BoundaryTag.GAMMA3).tolist())
    allowed = set(mesh.interface_vertices)
    for v in sorted((g1 & g3) - allowed):
        report.append(
            f"vertex {v} carries both G1 and G3 tags but is not a declared interface vertex"
        )

    neighbours: dict[int, set[int]] = {v: set() for v in range(nv)}
    for tri in mesh.triangles:
        for a in tri:
            neighbours[int(a)].update(int(b) for b in tri)
    seen: set[int] = set()
    for start in range(nv):
        if start in seen:
            continue
        component, stack = {start}, [start]
        while stack:
            for b in neighbours[stack.pop()] - component:
                component.add(b)
                stack.append(b)
        seen |= component
        if not component & g1:
            report.append(f"the connected component of vertex {start} has no G1 edge")

    return report


def load_mesh_reference(text: str) -> Mesh:
    """Line-by-line mesh reader: the same meshes, messages and line numbers as ``load_mesh``.

    Rows are collected in lists, so a huge section count cannot allocate.
    """
    tag_by_name = {t.value: t for t in BoundaryTag}
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            rows.append((lineno, content.split()))

    pos = 0

    def next_row(what: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(rows):
            last = rows[-1][0] if rows else None
            raise MeshFormatError(f"unexpected end of file, expected {what}", last)
        row = rows[pos]
        pos += 1
        return row

    lineno, fields = next_row("header 'meshfmt 1'")
    if fields != ["meshfmt", "1"]:
        raise MeshFormatError("expected header 'meshfmt 1'", lineno)

    def section(name: str) -> int:
        if name == "boundary" and pos >= len(rows):
            raise MeshFormatError("boundary tags required", rows[-1][0] if rows else None)
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

    nv = section("vertices")
    vertices: list[tuple[float, float]] = []
    for r in range(nv):
        lineno, fields = next_row("vertex coordinates 'x y'")
        if len(fields) != 2:
            raise MeshFormatError("expected two coordinates 'x y'", lineno)
        try:
            vertices.append((float(fields[0]), float(fields[1])))
        except ValueError:
            raise MeshFormatError(f"bad coordinate in {fields!r}", lineno) from None

    nt = section("triangles")
    triangles: list[list[int]] = []
    for r in range(nt):
        lineno, fields = next_row("triangle indices 'i j k'")
        if len(fields) != 3:
            raise MeshFormatError("expected three vertex indices 'i j k'", lineno)
        try:
            tri = [int(f) for f in fields]
        except ValueError:
            raise MeshFormatError(f"bad vertex index in {fields!r}", lineno) from None
        for v in tri:
            if v < 0 or v >= nv:
                raise MeshFormatError(
                    f"triangle references vertex index {v} out of range [0, {nv})", lineno
                )
        triangles.append(tri)

    ne = section("boundary")
    edges: list[tuple[int, int]] = []
    tags: list[BoundaryTag] = []
    for r in range(ne):
        lineno, fields = next_row("boundary edge 'i j TAG'")
        if len(fields) != 3:
            raise MeshFormatError("expected boundary edge 'i j TAG'", lineno)
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise MeshFormatError(f"bad vertex index in {fields!r}", lineno) from None
        for v in (a, b):
            if v < 0 or v >= nv:
                raise MeshFormatError(
                    f"boundary edge references vertex index {v} out of range [0, {nv})",
                    lineno,
                )
        tag = tag_by_name.get(fields[2])
        if tag is None:
            raise MeshFormatError(
                f"unknown boundary tag {fields[2]!r}, expected one of G1, G2, G3", lineno
            )
        edges.append((a, b))
        tags.append(tag)

    interface: list[int] = []
    if pos < len(rows) and rows[pos][1][0] == "interface":
        for _ in range(section("interface")):
            lineno, fields = next_row("interface vertex index")
            if len(fields) != 1 or not fields[0].isdecimal() or int(fields[0]) >= nv:
                raise MeshFormatError(
                    f"expected one interface vertex index in [0, {nv}), got {fields!r}", lineno
                )
            interface.append(int(fields[0]))

    if pos != len(rows):
        raise MeshFormatError("trailing content after the last section", rows[pos][0])

    return Mesh(
        np.reshape(vertices, (nv, 2)),
        np.reshape(np.array(triangles, dtype=np.int64), (nt, 3)),
        np.reshape(np.array(edges, dtype=np.int64), (ne, 2)),
        tuple(tags),
        interface_vertices=tuple(interface),
    )


def save_mesh_reference(mesh: Mesh) -> str:
    """The mesh text format written row by row, one numpy scalar at a time."""
    lines = ["meshfmt 1"]
    lines.append(f"vertices {mesh.num_vertices}")
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    lines.append(f"triangles {mesh.num_triangles}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    lines.append(f"boundary {mesh.num_boundary_edges}")
    for (i, j), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        lines.append(f"{i} {j} {tag.value}")
    if mesh.interface_vertices:
        lines.append(f"interface {len(mesh.interface_vertices)}")
        lines.extend(str(v) for v in mesh.interface_vertices)
    return "\n".join(lines) + "\n"


def solution_csv_reference(mesh: Mesh, values: np.ndarray) -> str:
    """``solution.csv`` written row by row, one numpy scalar at a time."""
    lines = ["vertex_id,x,y,u"]
    for vid, ((x, y), u) in enumerate(zip(mesh.vertices, values)):
        lines.append(f"{vid},{x:.17g},{y:.17g},{u:.17g}")
    return "\n".join(lines) + "\n"


def vertex_classes_reference(mesh: Mesh) -> np.ndarray:
    """``VertexClass`` per vertex: G1 on ``gamma1_vertices``, G3 on ``gamma3_vertices``, else free."""
    classes = np.full(mesh.num_vertices, VertexClass.FREE, dtype=np.int64)
    classes[mesh.gamma1_vertices()] = VertexClass.GAMMA1
    classes[mesh.gamma3_vertices()] = VertexClass.GAMMA3  # excludes the G1 vertices
    return classes


def schur_reference(mesh) -> np.ndarray:
    """``A_gg - A_gb A_bb^-1 A_bg`` over the sorted G3 vertices, one back-solve per G3 node."""
    A = assemble_stiffness(mesh).tocsr()
    classes = vertex_classes_reference(mesh)
    bulk = np.nonzero(classes == VertexClass.FREE)[0]
    g3 = np.nonzero(classes == VertexClass.GAMMA3)[0]
    lu = spla.splu(sp.csc_matrix(A[bulk][:, bulk]))
    A_bg = A[bulk][:, g3].toarray()
    columns = np.column_stack([lu.solve(A_bg[:, k]) for k in range(len(g3))])
    return A[g3][:, g3].toarray() - A[g3][:, bulk] @ columns


def robin_reference(mesh, data, boundary_mass: str = "consistent") -> np.ndarray:
    """The Robin field from one sparse direct solve of the free rows of ``A + alpha M``."""
    weights, consistent = assemble_boundary_mass(mesh)
    exchange = consistent if boundary_mass == "consistent" else sp.diags(weights)
    K = (assemble_stiffness(mesh) + data.alpha * exchange).tocsr()
    rhs = assemble_load(mesh, data) + data.alpha * (exchange @ data.b_nodal(mesh))
    free = np.nonzero(vertex_classes_reference(mesh) != VertexClass.GAMMA1)[0]
    u = np.zeros(mesh.num_vertices)
    u[free] = spla.spsolve(sp.csc_matrix(K[free][:, free]), rhs[free])
    return u


def l2_norm_reference(mesh: Mesh, nodal: np.ndarray) -> float:
    """L2 norm of a P1 field: ``|T|/6 (sum v_i^2 + sum_{i<j} v_i v_j)`` summed over the triangles."""
    total = 0.0
    for tri in mesh.triangles:
        (x0, y0), (x1, y1), (x2, y2) = mesh.vertices[tri]
        area = 0.5 * abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        a, b, c = nodal[tri]
        total += area / 6.0 * (a * a + b * b + c * c + a * b + b * c + c * a)
    return float(np.sqrt(total))


def coercivity_reference(mesh) -> tuple[float, float]:
    """``(m_a, gamma_norm)`` from dense ``eigh`` on the free (non-G1) rows and columns.

    ``m_a`` is the smallest eigenvalue of ``(A, A + M)``, ``gamma_norm`` the
    square root of the largest of ``(M_G3, A)``.
    """
    free = np.nonzero(vertex_classes_reference(mesh) != VertexClass.GAMMA1)[0]
    A, M, Mg3 = (
        B.toarray()[np.ix_(free, free)]
        for B in (assemble_stiffness(mesh), assemble_mass(mesh), assemble_boundary_mass(mesh)[1])
    )
    m_a = sla.eigh(A, A + M, eigvals_only=True)[0]
    gamma_sq = sla.eigh(Mg3, A, eigvals_only=True)[-1]
    return float(m_a), float(np.sqrt(gamma_sq))


def trace_constant_reference(mesh, full_norm: bool = False) -> float:
    """The largest eigenvalue of ``(W, A)`` from dense ``eigh`` on the free (non-G1) block.

    ``W`` is the diagonal of lumped G3 weights (zero off G3).  With
    ``full_norm`` the pencil is ``(W, A + M)``, the trace constant in the
    full V-norm.
    """
    free = np.nonzero(vertex_classes_reference(mesh) != VertexClass.GAMMA1)[0]
    A = assemble_stiffness(mesh)
    if full_norm:
        A = A + assemble_mass(mesh)
    W = np.diag(assemble_boundary_mass(mesh)[0][free])
    return float(sla.eigh(W, A.toarray()[np.ix_(free, free)], eigvals_only=True)[-1])


def exp_quadratic_table(b: float, r: float) -> tuple[float, float, float]:
    if r < b:
        s = 2.0 * (r - b)
        return s, s, 2.0 * (r - b) * (b - r)
    if r == b:
        return 0.0, 1.0, 0.0
    e = float(np.exp(-(r - b)))  # same correctly-rounded exp the solvers use
    return e, e, e * (b - r)


def quadratic_table(b: float, r: float) -> tuple[float, float, float]:
    d = r - b
    return d, d, d * (b - r)


def abs_table(b: float, r: float) -> tuple[float, float, float]:
    if r < b:
        return -1.0, -1.0, r - b
    if r == b:
        return -1.0, 1.0, 0.0
    return 1.0, 1.0, b - r


def truncated_quadratic_table(
    b: float, m1: float, m2: float, r0: float, r: float
) -> tuple[float, float, float]:
    if r < b - r0:
        return m1, m1, m1 * (b - r)
    if r == b - r0:
        return m1, -r0, max(m1 * (b - r), (-r0) * (b - r))
    if r < b + r0:
        d = r - b
        return d, d, d * (b - r)
    if r == b + r0:
        return r0, m2, r0 * (b - r)
    return m2, m2, m2 * (b - r)


def min_quadratics_table(
    b: float, k1: float, c1: float, k2: float, c2: float, r: float
) -> tuple[float, float, float]:
    d = r - b
    j1 = 0.5 * k1 * d**2 + c1
    j2 = 0.5 * k2 * d**2 + c2
    s1, s2 = k1 * d, k2 * d
    if j1 < j2:
        lo = hi = s1
    elif j2 < j1:
        lo = hi = s2
    else:
        lo, hi = min(s1, s2), max(s1, s2)
    return lo, hi, max(lo * (b - r), hi * (b - r))


def tresca_table(b: float, r: float) -> tuple[float, float, float]:
    """``|r|``: the kink sits at 0 whatever the anchor ``b``."""
    if r < 0.0:
        return -1.0, -1.0, r - b
    if r == 0.0:
        return -1.0, 1.0, abs(b - r)
    return 1.0, 1.0, b - r


def ramp_table(
    b: float, beta: float, c: float, power: float, r: float
) -> tuple[float, float, float]:
    """``beta (r-c)^power`` right of ``c``, zero left of it."""
    if r <= c:
        return 0.0, 0.0, 0.0
    # numpy's array power, as the solvers evaluate it
    s = power * beta * float(np.power(np.array([r - c]), power - 1.0)[0])
    return s, s, s * (b - r)


def prox_reference(p, z: float, tau: float, num: int = 100_001) -> tuple[float, float]:
    """Grid minimizer of ``1/2 (t-z)^2 + tau j(t)`` and its energy.

    Since ``j`` is bounded below by ``j_min``, a minimizer lies within
    ``sqrt(2 tau (j(z) - j_min))`` of ``z``; the grid spans that window and
    holds every breakpoint inside it.
    """
    window = np.linspace(-50.0, 50.0, 10_001) + p.b
    j_min = float(np.min(p.value_array(np.concatenate([window, p.breakpoints()]))))
    radius = np.sqrt(2.0 * tau * max(p.value(z) - j_min, 0.0)) + 1e-9
    t = np.linspace(z - radius, z + radius, num)
    t = np.concatenate([t, [bp for bp in p.breakpoints() if abs(bp - z) <= radius]])
    energy = 0.5 * (t - z) ** 2 + tau * p.value_array(t)
    k = int(np.argmin(energy))
    return float(t[k]), float(energy[k])


def relaxed_monotonicity_reference(p) -> float:
    """Largest ``(j0(r; s-r) + j0(s; r-s)) / |r-s|^2`` over pairs of ``pair_grid``, at least 0.

    A convex law gives 0.  At a concave kink the pairs that straddle it give
    ratios that grow like the inverse of their distance.
    """
    grid = pair_grid(p)
    lo, hi = p.subdiff_bounds(grid)
    d = grid[None, :] - grid[:, None]  # d[i, j] = r_j - r_i
    fwd = np.maximum(lo[:, None] * d, hi[:, None] * d)
    bwd = np.maximum(lo[None, :] * (-d), hi[None, :] * (-d))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (fwd + bwd) / d**2
    ratio[d == 0.0] = -np.inf
    return max(0.0, float(ratio.max()))
