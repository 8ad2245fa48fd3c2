"""Output checks: every op's files are re-derived from the op's own inputs.

A solve is re-certified from ``solution.csv`` alone: multivalued kinds through
the public ``check_certificate``, linear kinds through the assembled free-row
residual.  The recomputed values must match ``certificate.csv`` and the
process status must match its ``converged`` flag.  An experiment's CSV rows
(``certificate_max`` and ``verdict``) must agree with the claims and the
overall verdict of ``verdicts.txt``.

Any contradiction raises ``CheckFailed`` and the benchmark stops at once: a
result that claims success and fails the re-check is not a mere failed op.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from hviheat.assembly import (
    ProblemData,
    VertexClass,
    assemble_boundary_mass,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_dof_map,
    v0_seminorm,
    v_norm,
)
from hviheat.cli import parse_config
from hviheat.expressions import compile_expression
from hviheat.hvi_solver import Certificate, check_certificate
from hviheat.potentials import make_potential

from workloads import Op


class CheckFailed(Exception):
    """An op's output files disagree with the recomputation from its inputs."""


@dataclass(frozen=True)
class Outcome:
    ok: bool  # exit 0 and every check passed
    detail: str  # "certified", "uncertified", "verdict fail", "error: ..."
    digest: str
    output_bytes: int


LINEAR_KINDS = ("dirichlet", "robin", "robin_lumped")
EXPERIMENT_ROWS = {
    "linear_theorem": 5,
    "comparison": 3,
    "monotonicity": 2,
    "alpha_convergence": 4,
    "continuous_dependence": 5,
}
CSV_HEADER = "case_id,n,alpha,potential,err_V,margin_min,certificate_max,verdict"


def digest_outputs(out_dir: Path) -> tuple[str, int]:
    """SHA-256 over the sorted names and bytes of the output files, and their size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), size


def _agree(reported: float, recomputed: float, tol: float) -> bool:
    return abs(reported - recomputed) <= 0.01 * tol + 1e-6 * max(abs(reported), abs(recomputed))


def _key_values(path: Path) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "key,value":
        raise CheckFailed(f"{path.name}: bad header")
    return dict(line.split(",", 1) for line in lines[1:])


def check_solve(op: Op, cfg, out_dir: Path, status: int) -> str:
    """Re-certify a solve from its files; returns "certified" or "uncertified"."""
    mesh = op.mesh.build()
    table = np.loadtxt(out_dir / "solution.csv", delimiter=",", skiprows=1, ndmin=2)
    header = (out_dir / "solution.csv").read_text(encoding="utf-8").split("\n", 1)[0]
    if header != "vertex_id,x,y,u" or table.shape != (mesh.num_vertices, 4):
        raise CheckFailed(f"solution.csv: header {header!r}, shape {table.shape}")
    if not np.array_equal(table[:, 0], np.arange(mesh.num_vertices)) or not np.array_equal(
        table[:, 1:3], mesh.vertices
    ):
        raise CheckFailed("solution.csv: vertex ids or coordinates differ from the mesh")
    u = table[:, 3]
    reported = _key_values(out_dir / "certificate.csv")
    converged = reported["converged"] == "true"
    if status != (0 if converged else 1):
        raise CheckFailed(f"exit status {status} but converged={reported['converged']}")

    data = ProblemData.make(
        mesh,
        g=compile_expression(cfg.g_text),
        q=compile_expression(cfg.q_text),
        b=cfg.b,
        alpha=cfg.alpha if cfg.alpha is not None else 1.0,
    )
    opts = cfg.solver
    kind = cfg.problem_kind
    stiffness = assemble_stiffness(mesh)
    if kind in LINEAR_KINDS:
        load = assemble_load(mesh, data)
        b_vec = data.b_nodal(mesh)
        dof = build_dof_map(mesh, "K0" if kind == "dirichlet" else "V0")
        if kind == "dirichlet":
            K, rhs = stiffness, load
            g3 = dof.vertex_class == VertexClass.GAMMA3
            if not np.array_equal(u[g3], b_vec[g3]):
                raise CheckFailed("dirichlet solution differs from the datum on G3")
        else:
            weights, consistent = assemble_boundary_mass(mesh)
            if kind == "robin":
                K = stiffness + data.alpha * consistent
                rhs = load + data.alpha * (consistent @ b_vec)
            else:
                K = stiffness + data.alpha * sp.diags(weights)
                rhs = load + data.alpha * weights * b_vec
        if np.any(u[dof.vertex_class == VertexClass.GAMMA1] != 0.0):
            raise CheckFailed("solution is nonzero on G1")
        free = dof.free_indices
        residual = float(np.max(np.abs((K @ u - rhs)[free]))) if len(free) else 0.0
        cert = Certificate(interior_residual_max=residual, gamma3_inclusion_max=0.0)
    else:
        p = make_potential(cfg.potential_id, b=cfg.potential_b if cfg.potential_b is not None else cfg.b,
                           **cfg.potential_params)
        cert = check_certificate(mesh, data, p, u)

    pairs = (
        ("interior_residual_max", cert.interior_residual_max, opts.tol_interior),
        ("gamma3_inclusion_max", cert.gamma3_inclusion_max, opts.tol_inclusion),
        ("certificate_max", max(cert.interior_residual_max, cert.gamma3_inclusion_max), opts.tol_interior),
        ("norm_V", v_norm(stiffness, assemble_mass(mesh), u), 0.0),
        ("seminorm_V0", v0_seminorm(stiffness, u), 0.0),
    )
    if converged and not cert.within(opts):
        raise CheckFailed(
            f"reported converged, but the re-check gives interior {cert.interior_residual_max:.3e}, "
            f"inclusion {cert.gamma3_inclusion_max:.3e}"
        )
    for key, value, tol in pairs:
        if not _agree(float(reported[key]), value, tol):
            raise CheckFailed(f"certificate.csv {key} = {reported[key]}, recomputed {value!r}")
    return "certified" if converged else "uncertified"


_CLAIM = re.compile(r"^  \[(pass|fail|scope)\] (\S+): margin (\S+)")


def check_experiment(op: Op, cfg, out_dir: Path, status: int) -> str:
    """Cross-check an experiment's CSV against ``verdicts.txt``; returns the verdict."""
    exp = cfg.experiment_id
    lines = (out_dir / f"{exp}.csv").read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise CheckFailed(f"{exp}.csv: bad header")
    rows = [line.split(",") for line in lines[1:]]
    verdict_lines = (out_dir / "verdicts.txt").read_text(encoding="utf-8").splitlines()
    if verdict_lines[0] != f"experiment: {exp}" or not verdict_lines[-1].startswith("overall: "):
        raise CheckFailed("verdicts.txt: bad framing")
    overall = verdict_lines[-1].split(": ", 1)[1]
    claims = [m.groups() for m in map(_CLAIM.match, verdict_lines[1:-1]) if m]

    if exp == "refinement":
        expected_n = [int(n) for n in cfg.experiment["n_list"]]
    else:
        expected_n = [op.mesh.n] * EXPERIMENT_ROWS[exp]
    if [int(r[1]) for r in rows] != expected_n or any(len(r) != 8 for r in rows):
        raise CheckFailed(f"{exp}.csv: rows {[r[:2] for r in rows]} do not match the configuration")

    cert_tol = max(cfg.solver.tol_interior, cfg.solver.tol_inclusion)
    by_case = {r[0]: r for r in rows}
    for r in rows:
        if r[7] not in ("pass", "fail"):
            raise CheckFailed(f"{exp}.csv: verdict {r[7]!r}")
        if r[7] == "pass" and not float(r[6]) <= cert_tol:
            raise CheckFailed(f"{exp}.csv: case {r[0]} passes with certificate_max {r[6]}")
    for verdict, name, margin in claims:
        if name.startswith("certified[alpha=") and verdict == "fail":
            row = by_case.get("alpha_" + name[len("certified[alpha="):-1])
            if row is None or row[7] != "fail" or float(margin) != -float(row[6]):
                raise CheckFailed(f"claim {name} (margin {margin}) disagrees with its CSV row")
        if verdict == "fail" and "[alpha=" in name and exp in ("linear_theorem", "comparison"):
            row = by_case.get("alpha_" + name.split("[alpha=", 1)[1][:-1])
            if row is None or row[7] != "fail":
                raise CheckFailed(f"claim {name} fails but its CSV row passes")

    passed = all(r[7] == "pass" for r in rows) and all(v != "fail" for v, _, _ in claims)
    if overall != ("pass" if passed else "fail") or status != (0 if passed else 1):
        raise CheckFailed(f"overall {overall!r} and status {status} disagree with the rows and claims")
    return "verdict pass" if passed else "verdict fail"


def check_op(op: Op, config_path: Path, out_dir: Path, status: int) -> Outcome:
    """Check one finished op; raises ``CheckFailed`` on a contradiction."""
    digest, size = digest_outputs(out_dir)
    error = out_dir / "error.json"
    if error.exists() or status not in (0, 1):
        message = error.read_text(encoding="utf-8") if error.exists() else ""
        return Outcome(False, f"error: status {status} {message.strip()[:200]}", digest, size)
    cfg = parse_config(config_path.read_text(encoding="utf-8"))
    if op.command == "solve":
        detail = check_solve(op, cfg, out_dir, status)
    else:
        detail = check_experiment(op, cfg, out_dir, status)
    return Outcome(status == 0, detail, digest, size)
