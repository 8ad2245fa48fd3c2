"""Experiments that check the solver against the theory it discretizes.

Each experiment solves a family of problems, evaluates the predicted
inequalities nodally with an explicit slack, and returns an
``ExperimentReport`` whose rows export to CSV deterministically (17
significant digits, fixed column order), so reruns of the same configuration
are byte-identical.

Margins are satisfaction margins: a claim ``u <= v`` is recorded with margin
``min(v - u)`` and passes when the margin is no smaller than minus the slack.
All norm checks use the assembled discrete norms of the mesh at hand, taken
from its operator bundle: an experiment validates and assembles its mesh once
and shares that with every solve it makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assembly import ProblemData, mesh_operators, v_norm
from .mesh import BoundaryTag, Mesh, generate_unit_square_mesh
from .hvi_solver import (
    DEFAULT_OPTIONS,
    SolveReport,
    SolverOptions,
    solve_dirichlet,
    solve_hvi,
    solve_robin,
    trace_constant,
)
from .potentials import (
    Potential,
    check_scaled_sign_condition,
    check_sign_condition,
    check_strict_condition,
)

__all__ = [
    "PreconditionError",
    "ClaimResult",
    "CaseRow",
    "ExperimentReport",
    "verify_linear_theorem",
    "verify_comparison",
    "verify_monotonicity",
    "verify_alpha_convergence",
    "verify_continuous_dependence",
    "refinement_study",
]

CSV_HEADER = "case_id,n,alpha,potential,err_V,margin_min,certificate_max,verdict"

# a nodal claim u <= v passes down to a margin of -_SLACK
_SLACK = 1e-9


class PreconditionError(ValueError):
    """The experiment's standing hypotheses do not hold for the given data."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class ClaimResult:
    claim: str
    verdict: str  # "pass" | "fail" | "scope"
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class CaseRow:
    case_id: str
    n: int
    alpha: float
    potential: str
    err_v: float
    margin_min: float
    certificate_max: float
    verdict: str


@dataclass(frozen=True)
class ExperimentReport:
    """Measured outcome of one experiment; CSV export is deterministic."""

    experiment: str
    config: tuple[tuple[str, str], ...]
    rows: tuple[CaseRow, ...]
    claims: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.verdict != "fail" for c in self.claims) and all(
            r.verdict != "fail" for r in self.rows
        )

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                ",".join(
                    (
                        r.case_id,
                        str(r.n),
                        _fmt(r.alpha),
                        r.potential,
                        _fmt(r.err_v),
                        _fmt(r.margin_min),
                        _fmt(r.certificate_max),
                        r.verdict,
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [f"experiment: {self.experiment}"]
        for key, value in self.config:
            lines.append(f"  config {key} = {value}")
        for c in self.claims:
            detail = f" ({c.detail})" if c.detail else ""
            lines.append(f"  [{c.verdict}] {c.claim}: margin {_fmt(c.margin)}{detail}")
        lines.append(f"overall: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines) + "\n"


def _config(**kwargs) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in kwargs.items()))


def _infer_n(mesh: Mesh) -> int:
    n = int(round(np.sqrt(mesh.num_triangles / 2.0)))
    if n >= 1 and (n + 1) ** 2 == mesh.num_vertices and 2 * n * n == mesh.num_triangles:
        return n
    return 0


def _claim(name: str, margin: float, slack: float, scope: bool = False, detail: str = "") -> ClaimResult:
    if scope:
        return ClaimResult(name, "scope", margin, detail or "outside theorem scope")
    return ClaimResult(name, "pass" if margin >= -slack else "fail", margin, detail)


def _cert_max(report: SolveReport) -> float:
    return max(
        report.certificate.interior_residual_max, report.certificate.gamma3_inclusion_max
    )


def _require_h0(data: ProblemData) -> None:
    bad = data.sign_violations()
    if bad:
        raise PreconditionError("data sign conditions violated: " + "; ".join(bad))


def _l2_domain(mesh: Mesh, nodal: np.ndarray) -> float:
    M = mesh_operators(mesh).mass
    return float(np.sqrt(max(nodal @ (M @ nodal), 0.0)))


def _l2_gamma2(mesh: Mesh, pairs: np.ndarray) -> float:
    """L2 norm over G2 of an edgewise-linear field given by endpoint pairs."""
    edges = mesh.edges_with_tag(BoundaryTag.GAMMA2)
    if not len(edges):
        return 0.0
    lengths = mesh.edge_lengths(edges)
    a, bb = pairs[:, 0], pairs[:, 1]
    return float(np.sqrt(np.sum(lengths * (a * a + a * bb + bb * bb) / 3.0)))


def _v_norm(mesh: Mesh, v: np.ndarray) -> float:
    ops = mesh_operators(mesh)
    return v_norm(ops.stiffness, ops.mass, v)


def _stiffness_m_matrix(mesh: Mesh) -> str:
    """``yes`` when no free (non-G1) row of the stiffness has a positive off-diagonal entry.

    Then the free block is an M-matrix and the discrete maximum principle
    behind the comparison results holds; it explains an outcome, it is not
    a hypothesis the experiments check.
    """
    ops = mesh_operators(mesh)
    free = ops.dof_v0.free_indices
    rows = ops.stiffness[free].tocoo()
    return "no" if np.any(rows.data[free[rows.row] != rows.col] > 0.0) else "yes"


def _sweep(
    mesh: Mesh,
    data: ProblemData,
    alphas: Sequence[float],
    p: Potential | None,
    opts: SolverOptions,
) -> list[SolveReport]:
    """One solve per exchange coefficient, with the data's g, q and b, in input order.

    The Robin problem is solved when ``p`` is None, the multivalued law otherwise.
    """

    def solve(alpha: float) -> SolveReport:
        case = ProblemData(g=data.g, q=data.q, b=data.b, alpha=float(alpha))
        return solve_robin(mesh, case, opts) if p is None else solve_hvi(mesh, case, p, opts)

    return [solve(alpha) for alpha in alphas]


def _row(
    case_id: str,
    n: int,
    alpha: float,
    p: Potential | None,
    rep: SolveReport,
    err_v: float = float("nan"),
    margin_min: float = float("nan"),
    verdict: str | None = None,
) -> CaseRow:
    """A case row; unless ``verdict`` is given it passes exactly when ``rep`` certified."""
    if verdict is None:
        verdict = "pass" if rep.converged else "fail"
    potential = p.id if p is not None else ""
    return CaseRow(case_id, n, float(alpha), potential, err_v, margin_min, _cert_max(rep), verdict)


def _uncertified(label: str, rep: SolveReport, detail: str) -> ClaimResult:
    return ClaimResult(f"certified[{label}]", "fail", -_cert_max(rep), detail)


def _nonincreasing(errors: Sequence[float], scope: bool = False) -> list[ClaimResult]:
    """The ``error_nonincreasing`` claim, or none with fewer than two errors.

    An error may rise by at most 1e-10 from one case to the next.
    """
    if len(errors) < 2:
        return []
    margin = min(errors[k] - errors[k + 1] for k in range(len(errors) - 1))
    return [_claim("error_nonincreasing", margin, 1e-10, scope=scope)]


def _window(
    name: str, values: Sequence[float], lo: float, hi: float, detail: str, scope: bool = False
) -> ClaimResult:
    """Every value lies in ``[lo, hi]``; the margin is the nearest approach to an end."""
    margin = min(min(v - lo, hi - v) for v in values)
    return _claim(name, margin, 0.0, scope=scope, detail=detail)


def _ratios_text(ratios: Sequence[float]) -> str:
    return "ratios " + ",".join(f"{r:.4f}" for r in ratios)


def verify_linear_theorem(
    mesh: Mesh,
    data: ProblemData,
    alphas: Sequence[float] = (1.0, 10.0, 100.0, 1000.0, 10000.0),
    rel_target: float = 1e-3,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> ExperimentReport:
    """Comparison, coefficient monotonicity, and convergence of the linear law.

    Requires the sign conditions ``g <= 0``, ``q >= 0`` and a constant datum
    ``b > 0``.  Checks nodally, with a slack of 1e-9: the limit solution and
    every exchange solution stay below the datum, the exchange solutions stay
    below the limit solution and increase with the coefficient, and the error
    to the limit decreases along the sweep, ending below ``rel_target``
    relative to the limit solution's norm.  A case passes only when its
    solve certified.
    """
    _require_h0(data)
    if np.ndim(data.b) != 0 or float(np.asarray(data.b)) <= 0.0:
        raise PreconditionError("this experiment requires a constant datum b > 0")
    alphas = tuple(float(a) for a in alphas)
    if any(a <= 0 for a in alphas):
        raise PreconditionError("all exchange coefficients must be positive")

    b = float(np.asarray(data.b))
    n = _infer_n(mesh)

    u_inf = solve_dirichlet(mesh, data, opts).solution.values
    claims = [_claim("dirichlet_below_datum", float(np.min(b - u_inf)), _SLACK)]

    rows: list[CaseRow] = []
    errors: list[float] = []
    prev_u = None
    for alpha, rep in zip(alphas, _sweep(mesh, data, alphas, None, opts)):
        u = rep.solution.values
        errors.append(_v_norm(mesh, u - u_inf))
        margins = [float(np.min(b - u)), float(np.min(u_inf - u))]
        claims.append(_claim(f"robin_below_datum[alpha={alpha:g}]", margins[0], _SLACK))
        claims.append(_claim(f"robin_below_dirichlet[alpha={alpha:g}]", margins[1], _SLACK))
        if prev_u is not None:
            mono = float(np.min(u - prev_u))
            margins.append(mono)
            claims.append(_claim(f"monotone_in_alpha[alpha={alpha:g}]", mono, _SLACK))
        prev_u = u
        margin = min(margins)
        verdict = "pass" if rep.converged and margin >= -_SLACK else "fail"
        rows.append(_row(f"alpha_{alpha:g}", n, alpha, None, rep, errors[-1], margin, verdict))

    claims += _nonincreasing(errors)
    norm_inf = _v_norm(mesh, u_inf)
    claims.append(
        _claim(
            "final_error_below_target",
            rel_target * norm_inf - errors[-1],
            0.0,
            detail=f"target {rel_target:g} * |u_inf|_V = {_fmt(rel_target * norm_inf)}",
        )
    )

    return ExperimentReport(
        experiment="linear_theorem",
        config=_config(alphas=",".join(f"{a:g}" for a in alphas), b=b, rel_target=rel_target, n=n),
        rows=tuple(rows),
        claims=tuple(claims),
    )


def verify_comparison(
    mesh: Mesh,
    data: ProblemData,
    p: Potential,
    alphas: Sequence[float] = (1.0, 10.0, 100.0),
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> ExperimentReport:
    """Certified multivalued solutions stay below the datum and the limit.

    Requires the data sign conditions, ``b >= 0``, and a potential passing
    the anchor sign condition.  An uncertified solve fails its case rather
    than being skipped.
    """
    _require_h0(data)
    if np.any(np.asarray(data.b) < 0.0):
        raise PreconditionError("comparison requires b >= 0")
    sign = check_sign_condition(p)
    if not sign.passed:
        raise PreconditionError(
            f"potential fails the sign condition (worst {sign.worst_margin:.3e} at r={sign.worst_point[0]:g})"
        )

    n = _infer_n(mesh)
    b_vec = data.b_nodal(mesh)
    u_inf = solve_dirichlet(mesh, data, opts).solution.values

    rows: list[CaseRow] = []
    claims: list[ClaimResult] = []
    for alpha, rep in zip(alphas, _sweep(mesh, data, alphas, p, opts)):
        if not rep.converged:
            detail = "solver did not certify; case aborted"
            claims.append(_uncertified(f"alpha={alpha:g}", rep, detail))
            rows.append(_row(f"alpha_{alpha:g}", n, alpha, p, rep))
            continue
        u = rep.solution.values
        m1 = float(np.min(b_vec - u))
        m2 = float(np.min(u_inf - u))
        claims.append(_claim(f"below_datum[alpha={alpha:g}]", m1, _SLACK))
        claims.append(_claim(f"below_dirichlet[alpha={alpha:g}]", m2, _SLACK))
        margin = min(m1, m2)
        verdict = "pass" if margin >= -_SLACK else "fail"
        rows.append(_row(f"alpha_{alpha:g}", n, alpha, p, rep, margin_min=margin, verdict=verdict))

    return ExperimentReport(
        experiment="comparison",
        config=_config(
            alphas=",".join(f"{a:g}" for a in alphas),
            potential=p.id,
            b=p.b,
            n=n,
            stiffness_m_matrix=_stiffness_m_matrix(mesh),
        ),
        rows=tuple(rows),
        claims=tuple(claims),
    )


def verify_monotonicity(
    mesh: Mesh,
    data: ProblemData,
    p: Potential,
    alpha_pairs: Sequence[tuple[float, float]] = ((1.0, 10.0), (10.0, 100.0)),
    override: bool = False,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> ExperimentReport:
    """Solutions ordered by the exchange coefficient, gated by the scaled sign condition.

    For potentials failing the gating condition the experiment refuses to
    run; with ``override`` it runs anyway and labels every outcome as outside
    theorem scope (the nonconvex case is an open question, so we only probe).
    """
    _require_h0(data)
    gate = check_scaled_sign_condition(p)
    scope = False
    if not gate.passed:
        if not override:
            raise PreconditionError(
                "potential fails the scaled sign condition gating this experiment; "
                "pass override=True to probe outside theorem scope"
            )
        scope = True

    n = _infer_n(mesh)
    pairs = [(float(a1), float(a2)) for a1, a2 in alpha_pairs]
    for a1, a2 in pairs:
        if not 0 < a1 <= a2:
            raise PreconditionError(f"need 0 < alpha1 <= alpha2, got ({a1:g}, {a2:g})")

    unique_alphas = sorted({a for pair in pairs for a in pair})
    solved = dict(zip(unique_alphas, _sweep(mesh, data, unique_alphas, p, opts)))

    rows: list[CaseRow] = []
    claims: list[ClaimResult] = []
    for a1, a2 in pairs:
        r1, r2 = solved[a1], solved[a2]
        worst = max((r1, r2), key=_cert_max)
        if not (r1.converged and r2.converged):
            claims.append(_uncertified(f"{a1:g},{a2:g}", worst, "uncertified solve"))
            margin = float("nan")
        else:
            margin = float(np.min(r2.solution.values - r1.solution.values))
            claims.append(_claim(f"ordered[{a1:g}<={a2:g}]", margin, _SLACK, scope=scope))
        verdict = claims[-1].verdict
        rows.append(_row(f"pair_{a1:g}_{a2:g}", n, a2, p, worst, margin_min=margin, verdict=verdict))

    return ExperimentReport(
        experiment="monotonicity",
        config=_config(
            pairs=";".join(f"{a:g},{b:g}" for a, b in pairs),
            potential=p.id,
            override=override,
            scope="outside-theorem" if scope else "in-theorem",
            n=n,
            stiffness_m_matrix=_stiffness_m_matrix(mesh),
        ),
        rows=tuple(rows),
        claims=tuple(claims),
    )


def _fit_rate(alphas: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(1 + alpha).

    The closed-form linear benchmark decays exactly like 1/(1+alpha), so the
    shifted abscissa recovers the asymptotic exponent without the bias the
    smallest coefficients would otherwise introduce.
    """
    x = np.log1p(np.asarray(alphas, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def verify_alpha_convergence(
    mesh: Mesh,
    data: ProblemData,
    p: Potential,
    alphas: Sequence[float] = (1.0, 10.0, 100.0, 1000.0),
    final_rel_target: float = 1e-2,
    rate_window: tuple[float, float] | None = None,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> ExperimentReport:
    """Convergence of the multivalued solutions to the limit problem.

    Requires the sign conditions on the data and both the anchor sign
    condition and its strict form on the potential.  Along an increasing
    sweep the V-norm error to the limit solution must be nonincreasing and
    end below the relative target; the boundary defect

        -(sum over G3 of m_i * j0(u_i; b - u_i))

    must stay below a fitted multiple of 1/alpha.  With ``rate_window`` the
    experiment additionally fits the error decay rate and requires the
    exponent to fall inside the window.
    """
    _require_h0(data)
    sign = check_sign_condition(p)
    if not sign.passed:
        raise PreconditionError("potential fails the sign condition")
    strict = check_strict_condition(p)
    if not strict.passed:
        raise PreconditionError(
            "potential fails the strict sign condition needed for convergence"
        )
    alphas = tuple(float(a) for a in alphas)
    if list(alphas) != sorted(alphas) or any(a <= 0 for a in alphas):
        raise PreconditionError("alphas must be positive and increasing")

    ops = mesh_operators(mesh)
    g3, weights = ops.gamma3, ops.gamma3_weights[ops.gamma3]
    n = _infer_n(mesh)
    b_vec = data.b_nodal(mesh)

    u_inf = solve_dirichlet(mesh, data, opts).solution.values
    norm_inf = _v_norm(mesh, u_inf)

    rows: list[CaseRow] = []
    claims: list[ClaimResult] = []
    errors: list[float] = []
    defects: list[float] = []
    for alpha, rep in zip(alphas, _sweep(mesh, data, alphas, p, opts)):
        if not rep.converged:
            claims.append(_uncertified(f"alpha={alpha:g}", rep, "uncertified"))
        u = rep.solution.values
        errors.append(_v_norm(mesh, u - u_inf))
        defects.append(-float(np.sum(weights * p.j0(u[g3], b_vec[g3] - u[g3]))))
        rows.append(_row(f"alpha_{alpha:g}", n, alpha, p, rep, err_v=errors[-1]))

    if len(alphas) > 1:
        claims += _nonincreasing(errors)
        claims.append(
            _claim(
                "final_error_below_target",
                final_rel_target * norm_inf - errors[-1],
                0.0,
                detail=f"final {_fmt(errors[-1])} vs target {_fmt(final_rel_target * norm_inf)}",
            )
        )
        fitted_c1 = defects[0] * alphas[0]
        worst = min(
            fitted_c1 * 1.05 / alphas[k] - defects[k] for k in range(1, len(alphas))
        )
        claims.append(
            _claim(
                "boundary_defect_bounded_by_fitted_over_alpha",
                worst,
                1e-14,
                detail=f"fitted constant {_fmt(fitted_c1)}",
            )
        )
        if rate_window is not None:
            rate = _fit_rate(alphas, errors)
            lo, hi = rate_window
            detail = f"fitted rate {rate:.6f} in [{lo:g}, {hi:g}]"
            claims.append(_window("rate_in_window", [rate], lo, hi, detail))
    else:
        claims.append(
            ClaimResult(
                "single_alpha",
                "pass",
                0.0,
                f"single error value {_fmt(errors[0])}; no rate claim",
            )
        )

    return ExperimentReport(
        experiment="alpha_convergence",
        config=_config(
            alphas=",".join(f"{a:g}" for a in alphas),
            potential=p.id,
            final_rel_target=final_rel_target,
            rate_window="" if rate_window is None else f"{rate_window[0]:g},{rate_window[1]:g}",
            n=n,
        ),
        rows=tuple(rows),
        claims=tuple(claims),
    )


def verify_continuous_dependence(
    mesh: Mesh,
    data: ProblemData,
    p: Potential,
    perturbed: Sequence[ProblemData],
    ratio_target: float | None = None,
    ratio_tol: float = 0.25,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> ExperimentReport:
    """Stability of the solution under perturbations of energy and flux.

    Requires the smallness condition ``alpha m_j gamma_W^2 < 1``, with
    ``m_j`` the relaxed-monotonicity constant and ``gamma_W^2`` the sharp
    constant of the lumped G3 trace in the energy seminorm
    (``trace_constant``).  For two solutions of the discrete problem,
    relaxed monotonicity node by node gives
    ``|e|_a^2 <= alpha m_j e'We <= alpha m_j gamma_W^2 |e|_a^2``, so under
    the condition the solution is unique and depends continuously on the
    data: errors must decrease monotonically and stay within a fitted
    linear multiple of the data perturbation.  When smallness fails the
    experiment downgrades to existence-only reporting: every case is still
    solved and certified, but the convergence claims are labeled out of
    scope.  With ``ratio_target`` the per-step error contraction must match
    the target within ``ratio_tol`` relative.
    """
    if any(pdata.alpha != data.alpha for pdata in perturbed):
        raise PreconditionError("perturbed data must keep the same exchange coefficient")
    m_j = p.m_j
    base = solve_hvi(mesh, data, p, opts)
    u = base.solution.values
    # after the solve, which built the Schur complement that it reuses
    gamma_sq = trace_constant(mesh)
    margin = 1.0 - data.alpha * m_j * gamma_sq
    kinks = p.concave_kinks() if np.isinf(m_j) else ()
    kink = f", concave kink at r={kinks[0]:.6g}" if kinks else ""
    scope = margin <= 0.0
    n = _infer_n(mesh)

    rows: list[CaseRow] = []
    claims: list[ClaimResult] = []
    if not base.converged:
        claims.append(_uncertified("base", base, "uncertified"))
    errors: list[float] = []
    deltas: list[float] = []
    for k, pdata in enumerate(perturbed):
        rep = solve_hvi(mesh, pdata, p, opts)
        if not rep.converged:
            claims.append(_uncertified(f"case={k}", rep, "uncertified"))
        errors.append(_v_norm(mesh, rep.solution.values - u))
        deltas.append(_l2_domain(mesh, pdata.g - data.g) + _l2_gamma2(mesh, pdata.q - data.q))
        rows.append(_row(f"perturbation_{k}", n, data.alpha, p, rep, errors[-1], deltas[-1]))

    claims.append(
        _claim(
            "smallness_condition",
            margin,
            0.0,
            scope=scope,
            detail=f"gamma_W^2={gamma_sq:.6g}, m_j={m_j:.6g}{kink}",
        )
    )
    claims += _nonincreasing(errors, scope=scope)
    if deltas and deltas[0] > 0.0 and errors[0] > 0.0:
        c_hat = errors[0] / deltas[0]
        worst = min(
            c_hat * deltas[k] * (1.0 + ratio_tol) - errors[k] for k in range(1, len(errors))
        ) if len(errors) > 1 else 0.0
        claims.append(
            _claim(
                "error_within_fitted_stability_constant",
                worst,
                1e-14,
                scope=scope,
                detail=f"fitted constant {_fmt(c_hat)}",
            )
        )
    if ratio_target is not None and len(errors) > 1:
        ratios = []
        for k in range(len(errors) - 1):
            if errors[k + 1] == 0.0:
                ratios.append(ratio_target if errors[k] == 0.0 else float("inf"))
            else:
                ratios.append(errors[k] / errors[k + 1])
        lo, hi = ratio_target * (1.0 - ratio_tol), ratio_target * (1.0 + ratio_tol)
        claims.append(_window("per_step_contraction", ratios, lo, hi, _ratios_text(ratios), scope))

    return ExperimentReport(
        experiment="continuous_dependence",
        config=_config(
            alpha=data.alpha,
            potential=p.id,
            cases=len(perturbed),
            smallness="holds" if not scope else "violated (existence-only)",
            n=n,
        ),
        rows=tuple(rows),
        claims=tuple(claims),
    )


def refinement_study(
    n_list: Sequence[int] = (2, 4, 8, 16),
    *,
    alpha: float,
    g=0.0,
    q=0.0,
    b=0.0,
    problem: str = "robin",
    p: Potential | None = None,
    opts: SolverOptions = DEFAULT_OPTIONS,
) -> ExperimentReport:
    """The chosen problem solved on a family of structured meshes.

    One row per mesh size, passing exactly when its solve certified.  No
    closed form is known here, so ``err_V`` is not a number and the study
    claims no rate (``report_only``).
    """
    n_list = [int(n) for n in n_list]
    if list(n_list) != sorted(n_list) or any(n < 1 for n in n_list):
        raise PreconditionError("mesh sizes must be increasing positive integers")

    if problem == "hvi" and p is None:
        raise PreconditionError("the multivalued problem needs a potential")
    if problem not in ("dirichlet", "robin", "hvi"):
        raise PreconditionError(f"unknown problem {problem!r}")

    def solve_case(n: int) -> SolveReport:
        """The case's report; its mesh, with its factors, is freed on return."""
        mesh = generate_unit_square_mesh(n)
        data = ProblemData.make(mesh, g=g, q=q, b=b, alpha=alpha)
        if problem == "dirichlet":
            return solve_dirichlet(mesh, data, opts)
        if problem == "robin":
            return solve_robin(mesh, data, opts)
        return solve_hvi(mesh, data, p, opts)

    return ExperimentReport(
        experiment="refinement",
        config=_config(
            n_list=",".join(str(n) for n in n_list),
            alpha=alpha,
            problem=problem,
            potential=p.id if p is not None else "",
        ),
        rows=tuple(_row(f"n_{n}", n, alpha, p, solve_case(n)) for n in n_list),
        claims=(ClaimResult("report_only", "pass", 0.0, "no rate claim"),),
    )
