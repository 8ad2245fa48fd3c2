"""P1 finite-element assembly over tagged triangulations.

Builds the sparse operators of the mixed problem

    -div(grad u) = g in the domain,   u = 0 on G1,
    -du/dn = q on G2,                 exchange law on G3,

namely the stiffness matrix ``a(u,v) = integral grad(u).grad(v)``, the domain
mass matrix, the load vector ``L(v) = integral g v - integral_{G2} q v``, and
the G3 edge mass (consistent matrix and lumped weights).  All quadrature is
exact for P1 fields, so no quadrature error enters downstream tolerances.

Everything that depends on the mesh alone is validated and assembled once
per mesh: ``mesh_operators`` returns the mesh's ``MeshOperators`` bundle,
which solvers, certificates and experiments share.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import BoundaryTag, Mesh, validate_mesh

__all__ = [
    "ProblemData",
    "DofMap",
    "MeshOperators",
    "VertexClass",
    "AssemblyError",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_load",
    "assemble_boundary_mass",
    "gamma3_mass",
    "build_dof_map",
    "mesh_operators",
    "mesh_report",
    "v_norm",
    "v0_seminorm",
]

ScalarField = float | np.ndarray | Callable[[np.ndarray, np.ndarray], np.ndarray]


class AssemblyError(ValueError):
    """Raised for inputs the assembler cannot integrate (e.g. degenerate cells)."""


def _nodal_values(mesh: Mesh, spec: ScalarField) -> np.ndarray:
    """Evaluate a constant / array / callable(x, y) to one value per vertex."""
    nv = mesh.num_vertices
    if callable(spec):
        out = np.asarray(spec(mesh.vertices[:, 0], mesh.vertices[:, 1]), dtype=float)
        return np.broadcast_to(out, (nv,)).astype(float)
    arr = np.asarray(spec, dtype=float)
    if arr.ndim == 0:
        return np.full(nv, float(arr))
    if arr.shape != (nv,):
        raise ValueError(f"nodal field has shape {arr.shape}, expected ({nv},)")
    return arr.copy()


@dataclass(frozen=True)
class ProblemData:
    """Internal energy, boundary flux, exchange datum, and coefficient.

    ``g`` is stored nodally; ``q`` as endpoint values per G2 edge; ``b`` is
    a constant or a nodal array.
    ``alpha`` is the positive exchange coefficient on G3.
    """

    g: np.ndarray
    q: np.ndarray
    b: float | np.ndarray
    alpha: float

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not np.all(np.isfinite(self.g)):
            raise ValueError("g contains non-finite values")
        if not np.all(np.isfinite(self.q)):
            raise ValueError("q contains non-finite values")
        if not np.all(np.isfinite(np.asarray(self.b, dtype=float))):
            raise ValueError("b contains non-finite values")

    @classmethod
    def make(
        cls,
        mesh: Mesh,
        g: ScalarField = 0.0,
        q: float | Callable[[np.ndarray, np.ndarray], np.ndarray] = 0.0,
        b: ScalarField = 0.0,
        alpha: float = 1.0,
    ) -> "ProblemData":
        """Normalize user-facing field specs against a mesh.

        ``q`` is a number or a callable of ``(x, y)``, evaluated at the
        endpoints of every G2 edge.
        """
        g_nodal = _nodal_values(mesh, g)

        g2_edges = mesh.edges_with_tag(BoundaryTag.GAMMA2)
        if callable(q):
            ends = mesh.vertices[g2_edges]  # (ne, 2, 2)
            q_pairs = np.asarray(q(ends[:, :, 0], ends[:, :, 1]), dtype=float)
        elif np.ndim(q) == 0:
            q_pairs = np.asarray(q, dtype=float)
        else:
            raise ValueError(f"q must be a number or a callable of (x, y), got shape {np.shape(q)}")
        q_pairs = np.broadcast_to(q_pairs, (len(g2_edges), 2)).astype(float)

        if callable(b):
            b_val: float | np.ndarray = _nodal_values(mesh, b)
        else:
            b_arr = np.asarray(b, dtype=float)
            b_val = float(b_arr) if b_arr.ndim == 0 else _nodal_values(mesh, b_arr)

        return cls(g=g_nodal, q=q_pairs, b=b_val, alpha=float(alpha))

    def b_nodal(self, mesh: Mesh) -> np.ndarray:
        """The exchange datum as a full nodal vector (constant broadcast)."""
        if np.ndim(self.b) == 0:
            return np.full(mesh.num_vertices, float(self.b))
        return np.asarray(self.b, dtype=float)

    def sign_violations(self) -> list[str]:
        """Violations of the comparison-theory sign conditions.

        The comparison and monotonicity experiments require g <= 0 in the
        domain, q >= 0 on G2, and b >= 0.
        """
        out = []
        if np.any(self.g > 0.0):
            out.append(f"g must be <= 0 everywhere (max {float(self.g.max()):.3e})")
        if self.q.size and np.any(self.q < 0.0):
            out.append(f"q must be >= 0 on G2 (min {float(self.q.min()):.3e})")
        if np.any(np.asarray(self.b) < 0.0):
            out.append("b must be >= 0")
        return out


class VertexClass(IntEnum):
    """Geometric classification under the Dirichlet-dominant corner rule."""

    FREE = 0
    GAMMA1 = 1
    GAMMA3 = 2


@dataclass(frozen=True)
class DofMap:
    """Constraint map realizing one of the conforming subspaces.

    ``V0`` fixes the G1 vertices at zero; ``K0`` additionally fixes the G3
    vertices.  ``vertex_class`` records the geometric class of every vertex
    regardless of space.
    """

    space: str
    vertex_class: np.ndarray
    fixed: np.ndarray

    @property
    def free_indices(self) -> np.ndarray:
        return np.nonzero(~self.fixed)[0]


def build_dof_map(mesh: Mesh, space: str = "V0") -> DofMap:
    """Classify vertices for the space ``V0`` (zero on G1) or ``K0`` (zero on G1 and G3)."""
    if space not in ("V0", "K0"):
        raise ValueError(f"unknown space {space!r}, expected 'V0' or 'K0'")
    classes = np.full(mesh.num_vertices, VertexClass.FREE, dtype=np.int64)
    classes[mesh.edges_with_tag(BoundaryTag.GAMMA3)] = VertexClass.GAMMA3
    classes[mesh.edges_with_tag(BoundaryTag.GAMMA1)] = VertexClass.GAMMA1  # G1 wins at corners
    if space == "V0":
        fixed = classes == VertexClass.GAMMA1
    else:
        fixed = classes != VertexClass.FREE
    return DofMap(space=space, vertex_class=classes, fixed=fixed)


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Stiffness matrix of the Dirichlet form, by exact P1 gradient quadrature.

    The matrix is symmetric and annihilates constants; a degenerate triangle
    aborts the assembly with its index.  Entries that cancel exactly (such as
    the diagonal edges of a right-angled grid) are not stored.
    """
    p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    # Edge opposite to local vertex i: coefficients of the P1 gradient.
    bcoef = np.stack(
        [p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]], axis=1
    )
    ccoef = np.stack(
        [p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]], axis=1
    )
    area = mesh.triangle_areas()
    bad = np.nonzero(area <= 1e-300)[0]
    if len(bad):
        raise AssemblyError(f"triangle {int(bad[0])} is degenerate (area {area[bad[0]]:.3e})")

    local = (
        bcoef[:, :, None] * bcoef[:, None, :] + ccoef[:, :, None] * ccoef[:, None, :]
    ) / (4.0 * area)[:, None, None]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    nv = mesh.num_vertices
    stiffness = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    stiffness.eliminate_zeros()
    return stiffness


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Consistent P1 domain mass matrix (local block area/12 * [[2,1,1],...])."""
    area = mesh.triangle_areas()
    if np.any(area <= 0):
        raise AssemblyError(f"triangle {int(np.argmax(area <= 0))} is degenerate")
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    local = area[:, None, None] * base[None, :, :]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    nv = mesh.num_vertices
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def assemble_load(mesh: Mesh, data: ProblemData) -> np.ndarray:
    """Load vector: domain term minus the G2 flux term.

    ``f_v = integral g phi_v dx - integral_{G2} q phi_v ds`` with exact P1
    mass quadrature; the flux enters with a minus sign.
    """
    f = mesh_operators(mesh).mass @ data.g
    g2_edges = mesh.edges_with_tag(BoundaryTag.GAMMA2)
    if len(g2_edges):
        lengths = mesh.edge_lengths(g2_edges)
        qa, qb = data.q[:, 0], data.q[:, 1]
        np.add.at(f, g2_edges[:, 0], -lengths * (2.0 * qa + qb) / 6.0)
        np.add.at(f, g2_edges[:, 1], -lengths * (qa + 2.0 * qb) / 6.0)
    return f


def assemble_boundary_mass(mesh: Mesh) -> tuple[np.ndarray, sp.csr_matrix]:
    """Lumped weights and consistent edge mass matrix of the G3 portion.

    The consistent matrix sums the 1D P1 edge blocks ``len/6 * [[2,1],[1,2]]``
    over G3 edges; the lumped weights are its row sums, so they add up to the
    length of G3.
    """
    g3_edges, lengths, weights = _gamma3_edges(mesh)
    nv = mesh.num_vertices
    rows = np.concatenate([g3_edges[:, 0], g3_edges[:, 0], g3_edges[:, 1], g3_edges[:, 1]])
    cols = np.concatenate([g3_edges[:, 0], g3_edges[:, 1], g3_edges[:, 0], g3_edges[:, 1]])
    vals = np.concatenate([lengths / 3.0, lengths / 6.0, lengths / 6.0, lengths / 3.0])
    consistent = sp.coo_matrix((vals, (rows, cols)), shape=(nv, nv)).tocsr()
    return weights, consistent


def _gamma3_edges(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The G3 edges, their lengths, and the lumped weights (half of each length per end)."""
    g3_edges = mesh.edges_with_tag(BoundaryTag.GAMMA3)
    if not len(g3_edges):
        raise AssemblyError("mesh has no G3 edges; the exchange boundary is required")
    lengths = mesh.edge_lengths(g3_edges)
    weights = np.zeros(mesh.num_vertices)
    np.add.at(weights, g3_edges[:, 0], lengths / 2.0)
    np.add.at(weights, g3_edges[:, 1], lengths / 2.0)
    return g3_edges, lengths, weights


def gamma3_mass(mesh: Mesh) -> sp.csr_matrix:
    """The consistent matrix of ``assemble_boundary_mass``, read-only, built on first use."""

    def build():
        consistent = assemble_boundary_mass(mesh)[1]
        _freeze(consistent)
        return consistent

    return mesh_operators(mesh).once("gamma3_mass", build)


def _freeze(*items) -> None:
    """Make arrays, and the arrays of sparse matrices, read-only."""
    for item in items:
        arrays = (item.data, item.indices, item.indptr) if sp.issparse(item) else (item,)
        for array in arrays:
            array.setflags(write=False)


class MeshOperators:
    """Everything that depends on one mesh alone, built once and shared.

    ``report`` is the mesh's ``validate_mesh`` report.  A valid mesh's
    bundle also holds the stiffness and mass matrices, the G3 lumped
    weights, the ``V0`` dof map, the index sets ``bulk`` (vertices on
    neither G1 nor G3) and ``gamma3``, and the stiffness blocks
    ``bulk_block`` (bulk rows and columns) and ``coupling`` (bulk rows, G3
    columns), which do not depend on the data or the exchange coefficient.
    Its arrays are read-only.  Members that only some solvers need, such as
    a factorization or the consistent G3 mass (``gamma3_mass``), are built
    by ``once`` on first use.  Solvers read the bundle and the data's
    ``assemble_load``; nothing else holds per-mesh operators.  Get a bundle
    from ``mesh_operators``; it lives as long as its mesh and holds no
    reference to it, so both are freed without the cyclic collector.
    """

    def __init__(self, mesh: Mesh):
        self.report = tuple(validate_mesh(mesh))
        self._derived: dict[str, object] = {}
        if self.report:
            return
        self.stiffness = assemble_stiffness(mesh)
        self.mass = assemble_mass(mesh)
        self.gamma3_weights = _gamma3_edges(mesh)[2]
        self.dof_v0 = build_dof_map(mesh, "V0")
        classes = self.dof_v0.vertex_class
        self.bulk = np.nonzero(classes == VertexClass.FREE)[0]
        self.gamma3 = np.nonzero(classes == VertexClass.GAMMA3)[0]
        bulk_rows = self.stiffness[self.bulk]
        self.bulk_block = bulk_rows[:, self.bulk]
        self.coupling = bulk_rows[:, self.gamma3]
        _freeze(
            self.stiffness, self.mass, self.gamma3_weights, self.dof_v0.vertex_class,
            self.dof_v0.fixed, self.bulk, self.gamma3, self.bulk_block, self.coupling,
        )

    def once(self, key: str, build: Callable[[], object]):
        """``build()`` on the first call for ``key``, its cached result after."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]


def _attached_operators(mesh: Mesh) -> MeshOperators:
    if mesh._operators is None:
        object.__setattr__(mesh, "_operators", MeshOperators(mesh))
    return mesh._operators


def mesh_report(mesh: Mesh) -> tuple[str, ...]:
    """``validate_mesh``'s report, computed once per mesh."""
    return _attached_operators(mesh).report


def mesh_operators(mesh: Mesh) -> MeshOperators:
    """The mesh's operator bundle, built on first use and kept with the mesh.

    Raises ``AssemblyError`` when the mesh fails validation.
    """
    ops = _attached_operators(mesh)
    if ops.report:
        raise AssemblyError("invalid mesh: " + "; ".join(ops.report[:4]))
    return ops


def v_norm(stiffness: sp.spmatrix, mass: sp.spmatrix, v: np.ndarray) -> float:
    """Full discrete norm: sqrt(v'(A+M)v)."""
    return float(np.sqrt(max(v @ (stiffness @ v) + v @ (mass @ v), 0.0)))


def v0_seminorm(stiffness: sp.spmatrix, v: np.ndarray) -> float:
    """Energy seminorm: sqrt(v'Av)."""
    return float(np.sqrt(max(v @ (stiffness @ v), 0.0)))
