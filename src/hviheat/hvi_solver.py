"""Certified solvers for the three problem variants on a tagged mesh.

Variants
--------
* ``solve_dirichlet`` -- the limit problem with the datum ``b`` imposed on G3.
* ``solve_robin`` -- the linear exchange law ``-du/dn = alpha (u - b)``.
* ``solve_hvi`` -- the multivalued law ``-du/dn in alpha dj(u)`` with a
  locally Lipschitz superpotential ``j`` (whose weak form is a boundary
  hemivariational inequality, hence the name).
* ``solve_vi_convex`` -- the same problem for convex ``j`` via the equivalent
  minimization, solved by coordinate-wise proximal descent on the boundary
  Schur complement.

The discrete multivalued problem lumps the G3 mass, so it decouples into one
scalar inclusion per G3 node:

    (f - A u)_i  in  alpha * m_i * dj(u_i),

while every other unconstrained row must satisfy ``(A u)_i = f_i``.  A
candidate field is accepted as a solution only through its ``Certificate``:
the maximal unconstrained-row residual and the maximal distance between the
rescaled boundary residual and the subdifferential interval.  Convergence is
declared on the certificate, never on step size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    AssembledSystem,
    MeshOperators,
    ProblemData,
    VertexClass,
    _freeze,
    assemble_system,
    mesh_operators,
    v0_seminorm,
    v_norm,
)
from .mesh import Mesh
from .potentials import Potential

__all__ = [
    "SolverOptions",
    "Certificate",
    "Solution",
    "SolveReport",
    "LinearSolveError",
    "solve_dirichlet",
    "solve_robin",
    "solve_hvi",
    "solve_vi_convex",
    "check_certificate",
]


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and iteration controls shared by all solvers."""

    tol_interior: float = 1e-9
    tol_inclusion: float = 1e-8
    max_iters: int = 10_000
    damping_init: float = 1.0
    seed: int = 0
    linear_solver: str = "auto"  # auto | direct | cg
    direct_dof_limit: int = 20_000
    cg_tol: float = 1e-11


DEFAULT_OPTIONS = SolverOptions()


class LinearSolveError(RuntimeError):
    """A linear solve missed its residual contract; carries the history."""

    def __init__(self, message: str, history: tuple[float, ...]):
        super().__init__(f"{message}; residual history {list(history)}")
        self.history = history


@dataclass(frozen=True)
class Certificate:
    """Residual pair that characterizes a discrete solution.

    ``interior_residual_max`` covers every unconstrained non-G3 row of
    ``A u = f``; ``gamma3_inclusion_max`` is the largest distance of the
    rescaled boundary residual ``(f - A u)_i / (alpha m_i)`` from the
    subdifferential interval at ``u_i``.  Both vanish exactly at a discrete
    solution.
    """

    interior_residual_max: float
    gamma3_inclusion_max: float

    def within(self, opts: SolverOptions) -> bool:
        return (
            self.interior_residual_max <= opts.tol_interior
            and self.gamma3_inclusion_max <= opts.tol_inclusion
        )

    def merit(self, opts: SolverOptions) -> float:
        """Tolerance-scaled severity; at most 1 exactly when certified."""
        return max(
            self.interior_residual_max / opts.tol_interior,
            self.gamma3_inclusion_max / opts.tol_inclusion,
        )


@dataclass(frozen=True)
class Solution:
    """Nodal field with its discrete norms and a provenance snapshot."""

    values: np.ndarray
    norm_v: float
    seminorm_v0: float
    provenance: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class SolveReport:
    solution: Solution
    iterations: int
    linear_residual: float
    certificate: Certificate
    converged: bool
    damping_history: tuple[float, ...] = ()


class _SharedFactor:
    """A factorization shared by every solve on one mesh.

    SciPy does not promise that ``SuperLU.solve`` may run concurrently on
    one factor, so back-solves take the owning bundle's lock.
    """

    def __init__(self, lu, lock):
        self._lu = lu
        self._lock = lock

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        with self._lock:
            return self._lu.solve(rhs)


def _bulk_factor(ops: MeshOperators) -> _SharedFactor:
    """Factorization of the mesh's bulk block, built on first use."""
    return ops.once(
        "bulk_factor", lambda: _SharedFactor(spla.splu(sp.csc_matrix(ops.bulk_block)), ops.lock)
    )


def _trace_reduction(ops: MeshOperators) -> tuple[np.ndarray, sp.csr_matrix, np.ndarray]:
    """``(A_bg, A_gb, S)``: the bulk/G3 coupling blocks and the Schur complement.

    ``S = A_gg - A_gb A_bb^-1 A_bg`` is the stiffness reduced to the G3
    trace; it is dense, one column per G3 node.
    """

    def build():
        A, bulk, g3 = ops.stiffness, ops.bulk, ops.gamma3
        A_bg = A[bulk][:, g3].toarray()
        A_gb = A[g3][:, bulk]
        schur = A[g3][:, g3].toarray() - A_gb @ _bulk_factor(ops).solve(A_bg)
        _freeze(A_bg, A_gb, schur)
        return A_bg, A_gb, schur

    return ops.once("trace_reduction", build)


def _linear_solve(
    A: sp.spmatrix,
    rhs: np.ndarray,
    opts: SolverOptions,
    factor=None,
) -> tuple[np.ndarray, float]:
    """SPD solve: sparse factorization at desk scale, CG above the cutoff.

    ``factor``, when given, returns a factorization of ``A`` on demand; the
    direct path then reuses it instead of factoring ``A`` again.
    """
    n = A.shape[0]
    method = opts.linear_solver
    if method == "auto":
        method = "direct" if n <= opts.direct_dof_limit else "cg"
    rhs_norm = float(np.linalg.norm(rhs))
    history: list[float] = []

    if method == "direct":
        lu = factor() if factor is not None else spla.splu(sp.csc_matrix(A))
        x = lu.solve(rhs)
        res = float(np.linalg.norm(rhs - A @ x))
        history.append(res)
        if rhs_norm > 0.0 and res > 1e-13 * rhs_norm:
            x = x + lu.solve(rhs - A @ x)
            history.append(float(np.linalg.norm(rhs - A @ x)))
    elif method == "cg":
        diag = A.diagonal()
        precond = sp.diags(1.0 / diag)
        x, info = spla.cg(A, rhs, rtol=opts.cg_tol, atol=0.0, M=precond, maxiter=50 * n)
        history.append(float(np.linalg.norm(rhs - A @ x)))
        if info != 0:
            raise LinearSolveError(f"conjugate gradient stopped with code {info}", tuple(history))
    else:
        raise ValueError(f"unknown linear solver {method!r}")

    relres = history[-1] / rhs_norm if rhs_norm > 0.0 else history[-1]
    if relres > 1e-10:
        raise LinearSolveError(f"relative residual {relres:.3e} exceeds 1e-10", tuple(history))
    return x, relres


def _make_solution(u: np.ndarray, system: AssembledSystem, provenance: dict) -> Solution:
    return Solution(
        values=u,
        norm_v=v_norm(system.stiffness, system.mass, u),
        seminorm_v0=v0_seminorm(system.stiffness, u),
        provenance=provenance,
    )


def _check_anchor(data: ProblemData, p: Potential, mesh: Mesh) -> None:
    b_vec = data.b_nodal(mesh)
    g3 = mesh_operators(mesh).gamma3
    if np.any(b_vec[g3] != p.b):
        raise ValueError(
            f"potential anchored at b={p.b:g} but the problem datum on G3 differs"
        )


def _certificate(system: AssembledSystem, p: Potential, u: np.ndarray) -> Certificate:
    res = system.stiffness @ u - system.load
    free = ~system.dof_map.fixed
    g3 = system.dof_map.vertex_class == VertexClass.GAMMA3
    bulk = free & ~g3
    interior = float(np.max(np.abs(res[bulk]))) if np.any(bulk) else 0.0
    idx = np.nonzero(g3)[0]
    lam = -res[idx] / (system.data.alpha * system.gamma3_weights[idx])
    lo, hi = p.subdiff_bounds(u[idx])
    dist = np.maximum(np.maximum(lo - lam, lam - hi), 0.0)
    inclusion = float(dist.max()) if len(dist) else 0.0
    return Certificate(interior_residual_max=interior, gamma3_inclusion_max=inclusion)


def check_certificate(mesh: Mesh, data: ProblemData, p: Potential, u) -> Certificate:
    """Certificate of an arbitrary candidate field (pure function).

    ``u`` may be a ``Solution`` or a nodal array with the G1 values at zero.
    """
    values = u.values if isinstance(u, Solution) else np.asarray(u, dtype=float)
    system = assemble_system(mesh, data)
    return _certificate(system, p, values)


def solve_dirichlet(
    mesh: Mesh, data: ProblemData, opts: SolverOptions = DEFAULT_OPTIONS
) -> SolveReport:
    """Limit problem: zero on G1, the datum ``b`` on G3, flux ``q`` on G2.

    The free-node system is symmetric positive definite, so the solution is
    unique; the report's certificate carries the free-row residual.
    """
    system = assemble_system(mesh, data)
    ops = mesh_operators(mesh)
    nv = mesh.num_vertices
    u = np.zeros(nv)
    g3 = ops.gamma3
    u[g3] = data.b_nodal(mesh)[g3]

    # the K0 free set is the bulk set, so the bulk factor solves this system
    free = ops.bulk
    fixed = ops.dof_k0.fixed_indices
    A = system.stiffness
    rhs = system.load[free] - A[free][:, fixed] @ u[fixed]
    x, relres = _linear_solve(ops.bulk_block, rhs, opts, factor=lambda: _bulk_factor(ops))
    u[free] = x

    residual = float(np.max(np.abs((A @ u - system.load)[free]))) if len(free) else 0.0
    cert = Certificate(interior_residual_max=residual, gamma3_inclusion_max=0.0)
    sol = _make_solution(u, system, {"problem": "dirichlet", "alpha": data.alpha, "potential": ""})
    return SolveReport(
        solution=sol,
        iterations=1,
        linear_residual=relres,
        certificate=cert,
        converged=True,
    )


def solve_robin(
    mesh: Mesh,
    data: ProblemData,
    opts: SolverOptions = DEFAULT_OPTIONS,
    boundary_mass: str = "consistent",
) -> SolveReport:
    """Linear exchange law ``-du/dn = alpha (u - b)`` on G3.

    The exchange term uses the consistent edge mass by default, which keeps
    the benchmark with an affine solution exact; ``boundary_mass="lumped"``
    switches to the nodal weights used by the multivalued solver.
    """
    if boundary_mass not in ("consistent", "lumped"):
        raise ValueError(f"unknown boundary mass {boundary_mass!r}")
    system = assemble_system(mesh, data)
    alpha = data.alpha
    b_vec = data.b_nodal(mesh)
    if boundary_mass == "consistent":
        K = system.stiffness + alpha * system.gamma3_mass
        rhs_full = system.load + alpha * (system.gamma3_mass @ b_vec)
    else:
        K = system.stiffness + alpha * sp.diags(system.gamma3_weights)
        rhs_full = system.load + alpha * system.gamma3_weights * b_vec

    dof = system.dof_map
    free = dof.free_indices
    u = np.zeros(mesh.num_vertices)
    x, relres = _linear_solve(sp.csr_matrix(K)[free][:, free], rhs_full[free], opts)
    u[free] = x

    residual = float(np.max(np.abs((K @ u - rhs_full)[free])))
    cert = Certificate(interior_residual_max=residual, gamma3_inclusion_max=0.0)
    sol = _make_solution(
        u, system, {"problem": f"robin_{boundary_mass}", "alpha": alpha, "potential": ""}
    )
    return SolveReport(
        solution=sol,
        iterations=1,
        linear_residual=relres,
        certificate=cert,
        converged=True,
    )


def _initial_iterate(mesh: Mesh, data: ProblemData, opts: SolverOptions) -> np.ndarray:
    """Deterministic warm start: the lumped-mass linear exchange solution."""
    return solve_robin(mesh, data, opts, boundary_mass="lumped").solution.values.copy()


def solve_hvi(
    mesh: Mesh,
    data: ProblemData,
    p: Potential,
    opts: SolverOptions = DEFAULT_OPTIONS,
    initial: np.ndarray | str | None = None,
) -> SolveReport:
    """Multivalued exchange law via a damped semismooth fixed point.

    Each iteration picks a subgradient selection per G3 node (the interval
    point closest to the previous multiplier, started at the midpoint),
    linearizes the boundary term like a Robin condition wherever the
    subdifferential is a singleton with positive branch slope, treats it as
    an explicit source otherwise, solves the resulting SPD system, and blends
    the candidate with damping adapted to certificate decrease: the factor
    halves when the certificate worsens and doubles (capped at one) when it
    improves.  Existence holds for every ``alpha``, but without the
    smallness condition the solution need not be unique; the solver returns
    one certified solution and reports failure honestly otherwise.

    ``initial`` is the warm start: an explicit nodal field, ``"random"``
    (seeded from the options, for multistart probing), or None for the
    lumped linear-exchange solution.
    """
    _check_anchor(data, p, mesh)
    system = assemble_system(mesh, data)
    A = system.stiffness
    f = system.load
    alpha = data.alpha
    dof = system.dof_map
    free = dof.free_indices
    g3 = system.gamma3_nodes
    m = system.gamma3_weights[g3]

    if initial is None:
        start = _initial_iterate(mesh, data, opts)
    elif isinstance(initial, str):
        if initial != "random":
            raise ValueError(f"unknown initial iterate {initial!r}")
        rng = np.random.default_rng(opts.seed)
        start = rng.uniform(-1.0, 1.0, mesh.num_vertices)
    else:
        start = np.asarray(initial, dtype=float)
    u = np.zeros(mesh.num_vertices)
    u[free] = start[free]

    lo, hi = p.subdiff_bounds(u[g3])
    lam = 0.5 * (lo + hi)
    theta = min(max(opts.damping_init, 1e-6), 1.0)
    cert = _certificate(system, p, u)
    history: list[float] = []
    relres = 0.0
    iterations = 0
    stalls = 0

    while iterations < opts.max_iters and not cert.within(opts):
        iterations += 1
        lo, hi = p.subdiff_bounds(u[g3])
        eta = np.clip(lam, lo, hi)
        slopes = np.array([p.slope(float(u[i])) for i in g3])
        dcoef = np.where(lo == hi, np.maximum(slopes, 0.0), 0.0)

        robin_diag = np.zeros(mesh.num_vertices)
        robin_diag[g3] = alpha * m * dcoef
        K = A + sp.diags(robin_diag)
        rhs = f.copy()
        rhs[g3] -= alpha * m * (eta - dcoef * u[g3])
        w = np.zeros(mesh.num_vertices)
        w[free], relres = _linear_solve(sp.csr_matrix(K)[free][:, free], rhs[free], opts)

        accepted = False
        merit = cert.merit(opts)
        for _ in range(40):
            trial = (1.0 - theta) * u + theta * w
            cert_trial = _certificate(system, p, trial)
            if cert_trial.merit(opts) <= merit:
                accepted = cert_trial.merit(opts) < merit
                u, cert = trial, cert_trial
                break
            theta *= 0.5
        else:
            # no damping level improved the certificate: take the least-bad
            # step anyway so the selection can change, and count the stall
            trial = (1.0 - theta) * u + theta * w
            u = trial
            cert = _certificate(system, p, trial)
        history.append(theta)
        if accepted:
            theta = min(1.0, 2.0 * theta)
            stalls = 0
        else:
            stalls += 1
            if stalls >= 8:
                break
        lam = (f - A @ u)[g3] / (alpha * m)

    sol = _make_solution(
        u, system, {"problem": "hvi", "alpha": alpha, "potential": p.id}
    )
    return SolveReport(
        solution=sol,
        iterations=iterations,
        linear_residual=relres,
        certificate=cert,
        converged=cert.within(opts),
        damping_history=tuple(history),
    )


def solve_vi_convex(
    mesh: Mesh,
    data: ProblemData,
    p: Potential,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> SolveReport:
    """Convex exchange law via the equivalent boundary minimization.

    The unconstrained non-G3 unknowns are eliminated exactly through a
    factorized Schur complement, leaving a small strongly convex problem on
    the G3 trace that cyclic coordinate-wise proximal descent solves; each
    coordinate update applies the scalar resolvent of ``tau * dj`` in closed
    form (or by bisection for the power-law extras).  The result is checked
    against the same certificate as the general solver.  The factorization
    and the Schur complement depend on the mesh alone, so every solve on one
    mesh shares them.
    """
    if not p.convex:
        raise ValueError(f"potential {p.id!r} is not convex; use solve_hvi instead")
    _check_anchor(data, p, mesh)
    system = assemble_system(mesh, data)
    ops = mesh_operators(mesh)
    f = system.load
    alpha = data.alpha
    g3 = ops.gamma3
    m = system.gamma3_weights[g3]
    bulk = ops.bulk

    lu = _bulk_factor(ops)
    A_bg, A_gb, schur = _trace_reduction(ops)
    f_red = f[g3] - A_gb @ lu.solve(f[bulk])

    u_g = _initial_iterate(mesh, data, opts)[g3]
    diag = np.diag(schur)
    sweeps = 0
    while sweeps < opts.max_iters:
        sweeps += 1
        for k in range(len(g3)):
            rest = float(schur[k] @ u_g) - diag[k] * u_g[k]
            z = (f_red[k] - rest) / diag[k]
            u_g[k] = p.prox(z, alpha * m[k] / diag[k])
        lam = (f_red - schur @ u_g) / (alpha * m)
        lo, hi = p.subdiff_bounds(u_g)
        incl = float(np.max(np.maximum(np.maximum(lo - lam, lam - hi), 0.0)))
        if incl <= 0.5 * opts.tol_inclusion:
            break

    u = np.zeros(mesh.num_vertices)
    u[g3] = u_g
    u[bulk] = lu.solve(f[bulk] - A_bg @ u_g)
    bulk_res = f[bulk] - ops.bulk_block @ u[bulk] - A_bg @ u_g
    relres = float(np.linalg.norm(bulk_res) / max(np.linalg.norm(f[bulk]), 1e-300))

    cert = _certificate(system, p, u)
    sol = _make_solution(
        u, system, {"problem": "vi_convex", "alpha": alpha, "potential": p.id}
    )
    return SolveReport(
        solution=sol,
        iterations=sweeps,
        linear_residual=relres,
        certificate=cert,
        converged=cert.within(opts),
    )
