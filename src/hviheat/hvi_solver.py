"""Certified solvers for the three problem variants on a tagged mesh.

Variants
--------
* ``solve_dirichlet`` -- the limit problem with the datum ``b`` imposed on G3.
* ``solve_robin`` -- the linear exchange law ``-du/dn = alpha (u - b)``.
* ``solve_hvi`` -- the multivalued law ``-du/dn in alpha dj(u)`` with a
  locally Lipschitz superpotential ``j``, convex or not (whose weak form is a
  boundary hemivariational inequality, hence the name).

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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    MeshOperators,
    ProblemData,
    _freeze,
    assemble_load,
    gamma3_mass,
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
    "check_certificate",
    "trace_constant",
]


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and iteration controls shared by all solvers."""

    tol_interior: float = 1e-9
    tol_inclusion: float = 1e-8
    max_iters: int = 10_000


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
    """Nodal field with its discrete norms."""

    values: np.ndarray
    norm_v: float
    seminorm_v0: float


@dataclass(frozen=True)
class SolveReport:
    solution: Solution
    iterations: int
    linear_residual: float
    certificate: Certificate
    converged: bool

    def stop(self, opts: SolverOptions) -> str:
        """Why the solve under ``opts`` ended.

        ``certified`` when it converged, ``budget`` when it spent
        ``max_iters`` without certifying, and ``stalled`` when it ended
        uncertified with budget left (a sweep that moved no node, a
        Newton gradient at its rounding floor, or a linear solve, which
        counts one iteration, that missed its tolerances).
        """
        if self.converged:
            return "certified"
        return "budget" if self.iterations >= opts.max_iters else "stalled"


_EPS = np.finfo(float).eps

# Both factors are of SPD matrices: diagonal pivots, symmetric structure.
_SPD_SPLU = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}


def _bulk_factor(ops: MeshOperators) -> spla.SuperLU:
    """Factorization of the mesh's bulk block, built on first use.

    ``A_bb`` is SPD on a valid mesh: ``validate_mesh`` requires a G1 edge in
    every connected component, so each bulk vertex is joined to G1 or G3.
    It is factored in a minimum-degree order of ``A + A^T`` with diagonal
    pivots, which elimination keeps positive.  SuperLU is handed the CSR
    block's transpose, a CSC matrix on the same arrays, instead of a CSC
    copy: the P1 stiffness is bitwise symmetric, since an entry and its
    mirror sum the same triangle terms, each a symmetric product.
    """
    return ops.once(
        "bulk_factor",
        lambda: spla.splu(ops.bulk_block.T, permc_spec="MMD_AT_PLUS_A", **_SPD_SPLU),
    )


def _g3_last_factor(ops: MeshOperators) -> tuple[np.ndarray, spla.SuperLU]:
    """``(order, factor)``: the V0 free stiffness factored with G3 last.

    ``order`` lists the free vertices: the bulk in the fill-reducing column
    order of the bulk factor, then G3.  The stiffness is factored in that
    order, without column reordering or pivoting, so the factor's trailing
    block factors the Schur complement.  A factor that moved G3 out of its
    trailing block raises ``LinearSolveError``.
    """

    def build():
        nb = len(ops.bulk)
        order = np.concatenate([ops.bulk[np.argsort(_bulk_factor(ops).perm_c)], ops.gamma3])
        K = sp.csc_matrix(ops.stiffness[order][:, order])
        lu = spla.splu(K, permc_spec="NATURAL", **_SPD_SPLU)
        trailing = np.arange(nb, len(order))
        if not all(np.array_equal(perm[nb:], trailing) for perm in (lu.perm_r, lu.perm_c)):
            message = "the G3-last factorization moved G3 out of its trailing block"
            raise LinearSolveError(message, ())
        _freeze(order)
        return order, lu

    return ops.once("g3_last_factor", build)


def _trace_reduction(ops: MeshOperators) -> np.ndarray:
    """The Schur complement ``S = A_gg - A_gb A_bb^-1 A_bg`` of the G3 trace.

    ``S`` is the stiffness reduced to the trace; it is dense, the product of
    the trailing blocks of the G3-last factor's ``L`` and ``U``.
    """

    def build():
        nb, lu = len(ops.bulk), _g3_last_factor(ops)[1]
        schur = lu.L[nb:, nb:].toarray() @ lu.U[nb:, nb:].toarray()
        _freeze(schur)
        return schur

    return ops.once("trace_reduction", build)


def trace_constant(mesh: Mesh) -> float:
    """``gamma_W^2``: the sharp constant of ``sum_G3 m_i v_i^2 <= gamma_W^2 a(v, v)`` on V0.

    ``m_i`` are the lumped G3 weights that ``solve_hvi`` uses.  The energy
    of the best extension of a trace is ``v_g' S v_g``, so ``gamma_W^2`` is
    the largest eigenvalue of the pencil ``(W_gg, S)``: one over the
    smallest of ``W^-1/2 S W^-1/2``, from one dense ``eigvalsh`` on the
    mesh's cached Schur complement.  That eigenvalue is lowered by the
    eigensolver's backward-error bound ``n eps lambda_max``, so the value
    errs high, by about ``n eps`` times the condition number: a smallness
    margin that rounding could cancel does not come out positive.
    Computed once per mesh.
    """
    ops = mesh_operators(mesh)

    def build():
        scale = 1.0 / np.sqrt(ops.gamma3_weights[ops.gamma3])
        scaled = _trace_reduction(ops) * scale[:, None] * scale[None, :]
        eigenvalues = np.linalg.eigvalsh(scaled)
        rounding = len(eigenvalues) * _EPS * eigenvalues[-1]
        return 1.0 / float(eigenvalues[0] - rounding)

    return ops.once("trace_constant", build)


def _reduced_load(ops: MeshOperators, f: np.ndarray) -> np.ndarray:
    """``f_g - A_gb A_bb^-1 f_b``: the load ``f`` as the G3 trace sees it."""
    return f[ops.gamma3] - ops.coupling.T @ _bulk_factor(ops).solve(f[ops.bulk])


def _recover(ops: MeshOperators, f: np.ndarray, trace: np.ndarray) -> tuple[np.ndarray, float]:
    """The field with G3 values ``trace``, zero on G1, that solves the bulk rows of ``A u = f``.

    The bulk solve is refined once when its residual asks; a relative
    residual above 1e-10 after that raises ``LinearSolveError``.  Returns
    the field and that relative residual.
    """
    A, lu = ops.bulk_block, _bulk_factor(ops)
    rhs = f[ops.bulk] - ops.coupling @ trace
    rhs_norm = float(np.linalg.norm(rhs))
    x = lu.solve(rhs)
    history = [float(np.linalg.norm(rhs - A @ x))]
    if rhs_norm > 0.0 and history[-1] > 1e-13 * rhs_norm:
        x = x + lu.solve(rhs - A @ x)
        history.append(float(np.linalg.norm(rhs - A @ x)))
    relres = history[-1] / rhs_norm if rhs_norm > 0.0 else history[-1]
    if relres > 1e-10:
        raise LinearSolveError(f"relative residual {relres:.3e} exceeds 1e-10", tuple(history))
    u = np.zeros(ops.stiffness.shape[0])
    u[ops.gamma3], u[ops.bulk] = trace, x
    return u, relres


def _report(
    ops: MeshOperators,
    u: np.ndarray,
    relres: float,
    cert: Certificate,
    opts: SolverOptions,
    iterations: int = 1,
) -> SolveReport:
    """Report of the field ``u``, converged exactly when ``cert`` is within ``opts``."""
    solution = Solution(
        values=u,
        norm_v=v_norm(ops.stiffness, ops.mass, u),
        seminorm_v0=v0_seminorm(ops.stiffness, u),
    )
    return SolveReport(solution, iterations, relres, cert, cert.within(opts))


def _certificate(
    ops: MeshOperators, f: np.ndarray, alpha: float, p: Potential, u: np.ndarray
) -> Certificate:
    res = ops.stiffness @ u - f
    bulk, g3 = ops.bulk, ops.gamma3
    interior = float(np.max(np.abs(res[bulk]))) if len(bulk) else 0.0
    lam = -res[g3] / (alpha * ops.gamma3_weights[g3])
    lo, hi = p.subdiff_bounds(u[g3])
    dist = np.maximum(np.maximum(lo - lam, lam - hi), 0.0)
    inclusion = float(dist.max()) if len(dist) else 0.0
    return Certificate(interior_residual_max=interior, gamma3_inclusion_max=inclusion)


def check_certificate(mesh: Mesh, data: ProblemData, p: Potential, u) -> Certificate:
    """Certificate of an arbitrary candidate field (pure function).

    ``u`` may be a ``Solution`` or a nodal array with the G1 values at zero.
    """
    values = u.values if isinstance(u, Solution) else np.asarray(u, dtype=float)
    ops = mesh_operators(mesh)
    return _certificate(ops, assemble_load(mesh, data), data.alpha, p, values)


def solve_dirichlet(
    mesh: Mesh, data: ProblemData, opts: SolverOptions = DEFAULT_OPTIONS
) -> SolveReport:
    """Limit problem: zero on G1, the datum ``b`` on G3, flux ``q`` on G2.

    The free-node system is symmetric positive definite, so the solution is
    unique; the report's certificate carries the free-row residual.
    """
    ops = mesh_operators(mesh)
    f = assemble_load(mesh, data)
    u, relres = _recover(ops, f, data.b_nodal(mesh)[ops.gamma3])
    residual = float(np.max(np.abs((ops.stiffness @ u - f)[ops.bulk]), initial=0.0))
    return _report(ops, u, relres, Certificate(residual, 0.0), opts)


def solve_robin(
    mesh: Mesh, data: ProblemData, opts: SolverOptions = DEFAULT_OPTIONS
) -> SolveReport:
    """Linear exchange law ``-du/dn = alpha (u - b)`` on G3.

    The exchange term uses the consistent edge mass, which keeps the
    benchmark with an affine solution exact.  (The lumped form of this law
    is ``solve_hvi`` with the quadratic potential.)  The solve runs on the
    G3 trace, ``(S + alpha M_gg) u_g = f_red + alpha (M b)_g``, with the
    mesh's shared Schur complement ``S``, so no matrix is factored per
    ``alpha``; one bulk back-solve then recovers the field.  The
    certificate is the free-row residual of the full system.
    """
    ops = mesh_operators(mesh)
    alpha, g3 = data.alpha, ops.gamma3
    exchange = gamma3_mass(mesh)
    rhs = assemble_load(mesh, data) + alpha * (exchange @ data.b_nodal(mesh))

    reduced = _trace_reduction(ops) + alpha * exchange[g3][:, g3].toarray()
    u, relres = _recover(ops, rhs, np.linalg.solve(reduced, _reduced_load(ops, rhs)))

    free = ops.dof_v0.free_indices
    residual = float(np.max(np.abs((ops.stiffness @ u + alpha * (exchange @ u) - rhs)[free])))
    return _report(ops, u, relres, Certificate(residual, 0.0), opts)


def solve_hvi(
    mesh: Mesh,
    data: ProblemData,
    p: Potential,
    opts: SolverOptions = DEFAULT_OPTIONS,
    initial: np.ndarray | None = None,
) -> SolveReport:
    """Multivalued exchange law by descent on the energy of the G3 trace.

    The bulk unknowns are eliminated through the mesh's shared factors,
    leaving the energy ``1/2 u'Su - f'u + alpha sum m_k j(u_k)`` of
    the trace ``u`` with the dense Schur complement ``S``.  Each sweep of
    cyclic coordinate descent sets every node to ``p.prox``, the global
    minimizer of its 1D energy, so nonconvex ``j`` is handled like convex
    ``j``.  Once a sweep leaves every node on its branch or kink, Newton
    steps on the nodes off the kinks finish the solve, with the kink-held
    nodes pinned (a primal-dual active-set step).  A node that a step would
    carry off its branch stops on the kink bounding it, and the step is
    halved until the energy does not rise beyond rounding.  Sweeps and
    Newton steps count against ``max_iters``; a sweep that moves no node
    ends the solve, and so does a Newton gradient no larger than its own
    rounding error (``n eps`` times the size of its terms), which no step
    can lower.  Existence holds for every ``alpha``, but without the
    smallness condition the solution need not be unique; the solver returns
    one certified solution and reports failure honestly otherwise.

    ``initial`` is the warm start: an explicit nodal field (for multistart
    probing), or None for the lumped linear-exchange solution.
    """
    ops = mesh_operators(mesh)
    g3 = ops.gamma3
    b_g3 = data.b_nodal(mesh)[g3]
    if np.any(b_g3 != p.b):
        raise ValueError(f"potential anchored at b={p.b:g} but the problem datum on G3 differs")
    f = assemble_load(mesh, data)
    am = data.alpha * ops.gamma3_weights[g3]
    S = _trace_reduction(ops)
    f_red = _reduced_load(ops, f)

    nv = mesh.num_vertices
    if initial is None:
        u = np.linalg.solve(S + np.diag(am), f_red + am * b_g3)
    else:
        start = np.asarray(initial, dtype=float)
        if start.shape != (nv,):
            raise ValueError(
                f"initial field has shape {start.shape}, but the mesh has {nv} vertices"
            )
        u = start[g3]

    diag = np.diag(S)
    tau = am / diag
    kinks = np.sort(np.asarray(p.breakpoints(), dtype=float))
    ends = np.concatenate(([-np.inf], kinks, [np.inf]))  # piece i spans ends[i]..ends[i+1]

    def branch(v):  # 2i inside the i-th smooth piece, 2i+1 on the i-th kink
        left = np.searchsorted(kinks, v, side="left")
        return 2 * left + (np.searchsorted(kinks, v, side="right") > left)

    def energy(v):  # and the size of its terms, which bounds its rounding error
        terms = np.array([0.5 * v @ (S @ v), -(f_red @ v), am @ p.value_array(v)])
        return terms.sum(), np.abs(terms).sum()

    def inclusion(v):
        lam = (f_red - S @ v) / am
        lo, hi = p.subdiff_bounds(v)
        return float(np.max(np.maximum(np.maximum(lo - lam, lam - hi), 0.0), initial=0.0))

    iterations, stalled = 0, False
    keys = branch(u)
    while not stalled and inclusion(u) > 0.5 * opts.tol_inclusion and iterations < opts.max_iters:
        iterations += 1
        before = u.copy()
        for k in range(len(u)):
            u[k] = p.prox(u[k] + (f_red[k] - S[k] @ u) / diag[k], tau[k])
        if np.array_equal(u, before):
            break  # no node moved, so no later sweep can
        previous, keys = keys, branch(u)
        free = keys % 2 == 0
        if not np.array_equal(previous, keys) or not free.any():
            continue
        while iterations < opts.max_iters:
            dj = p.subdiff_bounds(u[free])[0]
            grad = (S @ u - f_red)[free] + am[free] * dj
            if np.max(np.abs(grad) / am[free]) <= 0.5 * opts.tol_inclusion:
                break  # the free nodes are solved; only a sweep moves the pinned ones
            terms = np.abs(S[free]) @ np.abs(u) + np.abs(f_red[free]) + am[free] * np.abs(dj)
            if np.all(np.abs(grad) <= len(u) * _EPS * terms):
                stalled = True  # the gradient is its own rounding error: no step lowers it
                break
            iterations += 1
            S_FF = S[np.ix_(free, free)]
            curvature = p.slope(u[free])
            jacobian = S_FF + np.diag(am[free] * curvature)
            try:
                np.linalg.cholesky(jacobian)
            except np.linalg.LinAlgError:
                # indefinite on concave pieces (j'' < 0): zero curvature there
                # makes the model a majorant of the energy, so the step descends
                jacobian = S_FF + np.diag(am[free] * np.maximum(curvature, 0.0))
            step = np.zeros_like(u)
            step[free] = np.linalg.solve(jacobian, grad)
            level, size = energy(u)
            for _ in range(20):  # halve the step until the energy does not rise
                # a node that would leave its piece stops on the kink bounding it
                trial = np.clip(u - step, ends[keys // 2], ends[keys // 2 + 1])
                if energy(trial)[0] <= level + 1e-13 * size:
                    break
                step /= 2.0
            else:
                break
            u, previous, keys = trial, keys, branch(trial)
            if not np.array_equal(previous, keys):
                break

    full, relres = _recover(ops, f, u)
    cert = _certificate(ops, f, data.alpha, p, full)
    return _report(ops, full, relres, cert, opts, iterations)
