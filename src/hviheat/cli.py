"""Batch front-end: parse a run configuration, dispatch, emit files.

Configurations are flat ``section.key = value`` text, one pair per line with
``#`` comments.  Three commands exist -- ``solve``, ``experiment``, and
``check-potential`` -- each invoked as ``hviheat <command> --config <path>
--out <dir>``.  Every emitted file is byte-deterministic for a fixed
configuration; the process exits 0 only when all verdicts pass and all
solves are certified, 1 on failed verdicts, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .assembly import ProblemData, mesh_report
from .expressions import ExpressionError, compile_expression
from .hvi_solver import (
    SolveReport,
    SolverOptions,
    solve_dirichlet,
    solve_hvi,
    solve_robin,
)
from .mesh import Mesh, MeshFormatError, _format_rows, generate_unit_square_mesh, load_mesh
from .mesh import validate_mesh  # noqa: F401  (re-exported for code that reads it from here)
from .potentials import (
    Potential,
    UnknownPotentialError,
    check_growth,
    check_scaled_sign_condition,
    check_sign_condition,
    check_strict_condition,
    make_potential,
    potential_ids,
)
from .verification import (
    PreconditionError,
    refinement_study,
    verify_alpha_convergence,
    verify_comparison,
    verify_continuous_dependence,
    verify_linear_theorem,
    verify_monotonicity,
)

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "describe_potential", "main"]

COMMANDS = ("solve", "experiment", "check-potential")
PROBLEM_KINDS = ("dirichlet", "robin", "robin_lumped", "hvi", "vi")
# Each experiment with the parameters it takes from the configuration.  A
# parameter the configuration does not set keeps the experiment's own default.
_EXPERIMENTS = {
    "linear_theorem": (verify_linear_theorem, ("alphas", "rel_target")),
    "comparison": (verify_comparison, ("alphas",)),
    "monotonicity": (verify_monotonicity, ("alpha_pairs", "override")),
    "alpha_convergence": (verify_alpha_convergence, ("alphas", "final_rel_target", "rate_window")),
    "continuous_dependence": (verify_continuous_dependence, ("ratio_target", "ratio_tol")),
    "refinement": (refinement_study, ("n_list",)),
}
EXPERIMENTS = tuple(_EXPERIMENTS)
# The names behind an experiment parameter whose key is not
# ``experiment.<parameter>``, and the names the CLI itself reads for an
# experiment.  A name is the last part of its key.
_PARAM_NAMES = {"rate_window": ("rate_lo", "rate_hi")}
_CLI_NAMES = {"continuous_dependence": ("levels", "bump")}
_ALPHAS_KEY = "problem.alphas"
_PARAM_PREFIX = "potential.params."


def _keys_read(command: str, experiment_id: str | None, kind: str) -> set[str]:
    """The keys that a run reads; ``potential.params.`` stands for every parameter key.

    ``check-potential`` reads the potential and ``problem.b``, its default
    anchor.  A solve reads the potential only for the multivalued kinds, and
    of the experiments ``linear_theorem`` never reads it; ``problem.kind`` is
    read by a solve and by ``refinement``, ``problem.alpha`` by all but a
    ``dirichlet`` solve (the limit problem has no exchange coefficient).
    ``refinement`` accepts ``mesh.*`` and leaves it unused: it builds its
    meshes from ``experiment.n_list``.
    """
    read = {"command", "problem.b", "experiment.workers"}
    potential = {"potential.id", "potential.b", _PARAM_PREFIX}
    if command == "check-potential":
        return read | potential
    read.update(key for key in _KNOWN_KEYS if key.startswith(("mesh.", "solver.")))
    read.update(("problem.g", "problem.q", "problem.alpha"))
    if command == "solve":
        if kind == "dirichlet":
            read.remove("problem.alpha")
        return read | {"problem.kind"} | (potential if kind in ("hvi", "vi") else set())
    names = {"id", *_CLI_NAMES.get(experiment_id, ())}
    for name in _EXPERIMENTS[experiment_id][1]:
        names.update(_PARAM_NAMES.get(name, (name,)))
    read.update(_ALPHAS_KEY if name == "alphas" else f"experiment.{name}" for name in names)
    if experiment_id == "refinement":
        read.add("problem.kind")
    return read if experiment_id == "linear_theorem" else read | potential


# Parsers: ``(key, value) -> parsed``, raising ``ValueError`` with the message
# that ``parse_config`` prefixes with the key's line.


def _text(key: str, value: str) -> str:
    return value


def _choice(*options: str):
    def parse(key: str, value: str) -> str:
        if value not in options:
            raise ValueError(f"{key} must be one of {', '.join(options)}; got {value!r}")
        return value

    return parse


def _flag(key: str, value: str) -> bool:
    return _choice("true", "false")(key, value) == "true"


def _integer(minimum: int | None = None):
    def parse(key: str, value: str) -> int:
        try:
            out = int(value)
        except ValueError:
            raise ValueError(f"{key} must be an integer, got {value!r}") from None
        if minimum is not None and out < minimum:
            raise ValueError(f"{key} must be at least {minimum}")
        return out

    return parse


def _number(positive: bool = False):
    def parse(key: str, value: str) -> float:
        try:
            out = float(value)
        except ValueError:
            out = np.nan
        if not np.isfinite(out):
            raise ValueError(f"{key} must be a finite number, got {value!r}")
        if positive and out <= 0.0:
            raise ValueError(f"{key} must be positive")
        return out

    return parse


def _positive_numbers(key: str, value: str) -> tuple[float, ...]:
    try:
        out = tuple(float(part) for part in value.split(",") if part.strip())
    except ValueError:
        out = (np.nan,)
    if not out:
        raise ValueError(f"{key} is empty; list at least one number")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{key} must be comma-separated finite numbers")
    if min(out) <= 0.0:
        raise ValueError(f"{key} must all be positive")
    return out


def _expression(key: str, value: str) -> str:
    try:
        compile_expression(value)
    except ExpressionError as exc:
        raise ValueError(f"{key}: {exc}") from None
    return value


def _alpha_pairs(key: str, value: str) -> tuple[tuple[float, ...], ...]:
    try:
        pairs = tuple(tuple(float(x) for x in chunk.split(":")) for chunk in value.split(","))
        if any(len(p) != 2 for p in pairs):
            raise ValueError
    except ValueError:
        raise ValueError(f"{key} must look like '1:10,10:100'") from None
    if not all(0 < a1 <= a2 < np.inf for a1, a2 in pairs):
        raise ValueError(f"{key} must be finite pairs a1:a2 with 0 < a1 <= a2, got {value!r}")
    return pairs


def _n_list(key: str, value: str) -> tuple[int, ...]:
    try:
        out = tuple(int(part) for part in value.split(","))
    except ValueError:
        raise ValueError(f"{key} must be comma-separated integers") from None
    if out[0] < 1 or any(a >= b for a, b in zip(out, out[1:])):
        raise ValueError(f"{key} must be increasing integers of at least 1, got {value!r}")
    return out


def _workers(key: str, value: str) -> int:
    if _integer()(key, value) != 1:
        raise ValueError(f"{key} must be 1; experiments run sequentially")
    return 1


def _check_parameter(key: str, pid: str | None) -> None:
    """Reject a ``potential.params.<name>`` that a known potential does not take."""
    if pid in potential_ids() and key[len(_PARAM_PREFIX):] not in make_potential(pid).params():
        raise ValueError(f"{key} is not a parameter of {pid}")


# Every key, in the order its checks run (and so the order of its errors), with
# the ``RunConfig`` field it fills and its parser.  A key ending in ``.`` stands
# for every key it prefixes, taken in name order.  The fields ``solver``,
# ``experiment`` and ``potential_params`` collect values under the key's name;
# a key with no field is checked and dropped.
_FIELDS = (
    ("command", "command", _choice(*COMMANDS)),
    ("mesh.n", "mesh_n", _integer(1)),
    ("mesh.file", "mesh_file", _text),
    ("problem.kind", "problem_kind", _choice(*PROBLEM_KINDS)),
    ("problem.g", "g_text", _expression),
    ("problem.q", "q_text", _expression),
    ("problem.b", "b", _number()),
    ("problem.alpha", "alpha", _number(positive=True)),
    (_ALPHAS_KEY, "alphas", _positive_numbers),
    ("potential.id", "potential_id", _text),
    ("potential.b", "potential_b", _number()),
    (_PARAM_PREFIX, "potential_params", _number()),
    ("solver.tol_interior", "solver", _number(positive=True)),
    ("solver.tol_inclusion", "solver", _number(positive=True)),
    ("solver.max_iters", "solver", _integer(0)),
    ("experiment.id", "experiment_id", _choice(*EXPERIMENTS)),
    ("experiment.alpha_pairs", "experiment", _alpha_pairs),
    ("experiment.override", "experiment", _flag),
    ("experiment.rel_target", "experiment", _number()),
    ("experiment.final_rel_target", "experiment", _number()),
    ("experiment.rate_lo", "experiment", _number()),
    ("experiment.rate_hi", "experiment", _number()),
    ("experiment.ratio_target", "experiment", _number()),
    ("experiment.ratio_tol", "experiment", _number()),
    ("experiment.levels", "experiment", _integer(1)),
    ("experiment.bump", "experiment", _expression),
    ("experiment.n_list", "experiment", _n_list),
    ("experiment.workers", None, _workers),
)
_KNOWN_KEYS = sorted(key for key, _, _ in _FIELDS if not key.endswith("."))


class ConfigError(ValueError):
    """One or more configuration problems; ``errors`` lists them all."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = tuple(errors)


@dataclass
class RunConfig:
    """Validated run configuration."""

    command: str
    mesh_n: int | None = None
    mesh_file: str | None = None
    problem_kind: str | None = None
    g_text: str = "0"
    q_text: str = "0"
    b: float = 0.0
    alpha: float | None = None
    alphas: tuple[float, ...] | None = None
    potential_id: str | None = None
    potential_b: float | None = None
    potential_params: dict[str, float] = field(default_factory=dict)
    solver: SolverOptions = field(default_factory=SolverOptions)
    experiment_id: str | None = None
    experiment: dict[str, object] = field(default_factory=dict)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a flat key/value configuration.

    Unknown keys are rejected with the nearest known key suggested; duplicate
    keys name both offending lines; a potential parameter that the named
    potential does not take, and a key that the run does not read (see
    ``_keys_read``), name their line.  All collected errors are raised
    together as a ``ConfigError``.
    """
    errors: list[str] = []
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        if "=" not in content:
            errors.append(f"line {lineno}: expected 'section.key = value'")
            continue
        key, value = (part.strip() for part in content.split("=", 1))
        if not key:
            errors.append(f"line {lineno}: missing key before '='")
            continue
        if key in pairs:
            errors.append(f"duplicate key {key} (lines {pairs[key][1]} and {lineno})")
            continue
        if key not in _KNOWN_KEYS and not key.startswith(_PARAM_PREFIX):
            nearest = difflib.get_close_matches(key, _KNOWN_KEYS, n=1)
            hint = f"; did you mean '{nearest[0]}'?" if nearest else ""
            errors.append(f"line {lineno}: unknown key '{key}'{hint}")
            continue
        pairs[key] = (value, lineno)

    fields: dict[str, Any] = {
        "command": "solve", "potential_params": {}, "solver": {}, "experiment": {}
    }
    line_of: dict[str, int] = {}
    for entry, name, parse in _FIELDS:
        for key in sorted(k for k in pairs if k == entry or entry[-1] == "." and k.startswith(entry)):
            value, lineno = pairs[key]
            try:
                parsed = parse(key, value)
                if entry == _PARAM_PREFIX:
                    _check_parameter(key, fields.get("potential_id"))
            except ValueError as exc:
                errors.append(f"line {lineno}: {exc}")
                continue
            if isinstance(fields.get(name), dict):
                fields[name][key.split(".", 2)[-1]] = parsed
            elif name is not None:
                fields[name], line_of[name] = parsed, lineno
        # two checks whose errors sit between those of two keys
        if name == "command" and name not in line_of and not any(name in e for e in errors):
            errors.append("missing required key 'command'")
        if name == "mesh_file" and "mesh_n" in line_of and name in line_of:
            errors.append("mesh.n and mesh.file are mutually exclusive")
    fields["solver"] = SolverOptions(**fields["solver"])
    cfg = RunConfig(**fields)

    kind = cfg.problem_kind or ("hvi" if cfg.potential_id else "robin")  # a solve's kind
    if "command" in line_of and (cfg.command != "experiment" or cfg.experiment_id):
        read = _keys_read(cfg.command, cfg.experiment_id, kind)
        reader = cfg.experiment_id if cfg.command == "experiment" else cfg.command
        if cfg.command == "solve" and cfg.problem_kind:
            reader += f" with problem.kind = {kind}"
        errors.extend(
            f"line {lineno}: {key} is not read by {reader}"
            for key, (_, lineno) in pairs.items()
            if (_PARAM_PREFIX if key.startswith(_PARAM_PREFIX) else key) not in read
        )
        rate = [f"experiment.{name}" for name in _PARAM_NAMES["rate_window"]]
        given = [key for key in rate if key in pairs]
        if len(given) == 1 and given[0] in read:
            errors.append(f"line {pairs[given[0]][1]}: {' and '.join(rate)} go together")

    # cross-field requirements
    if not errors:
        meshed = cfg.command in ("solve", "experiment") and cfg.experiment_id != "refinement"
        if meshed and cfg.mesh_n is None and cfg.mesh_file is None:
            errors.append("either mesh.n or mesh.file is required")
        if cfg.command == "solve":
            cfg.problem_kind = kind
            if cfg.alpha is None and kind != "dirichlet":
                errors.append("problem.alpha is required for this problem kind")
            if kind in ("hvi", "vi") and cfg.potential_id is None:
                errors.append("potential.id is required for the multivalued problem kinds")
        if cfg.command == "experiment" and cfg.experiment_id is None:
            errors.append("experiment.id is required for command=experiment")
        if cfg.command == "experiment" and cfg.experiment_id == "refinement" and cfg.problem_kind:
            kind, lineno = cfg.problem_kind, line_of["problem_kind"]
            if kind == "robin_lumped":
                errors.append(
                    f"line {lineno}: the refinement study takes problem.kind dirichlet, "
                    f"robin, hvi or vi, not {kind}"
                )
            elif kind in ("hvi", "vi") and cfg.potential_id is None:
                errors.append(f"line {lineno}: problem.kind = {kind} needs a potential.id")
        if cfg.problem_kind == "vi" and cfg.potential_id is not None:
            try:
                convex = _build_potential(cfg).convex
            except ValueError:  # unknown potential or bad parameters: the run reports it
                convex = True
            if not convex:
                errors.append(
                    f"line {line_of['potential_id']}: {cfg.potential_id} is not convex, and "
                    "problem.kind = vi is hvi restricted to convex j"
                )
        if cfg.command == "check-potential" and cfg.potential_id is None:
            errors.append("potential.id is required for command=check-potential")

    if errors:
        raise ConfigError(errors)
    return cfg


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, whose directory exists (``run`` and ``main`` make it)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _build_mesh(cfg: RunConfig) -> Mesh:
    if cfg.mesh_file is not None:
        path = Path(cfg.mesh_file)
        if not path.exists():
            raise FileNotFoundError(f"mesh file not found: {path}")
        mesh = load_mesh(path.read_text(encoding="utf-8"))
        # the report is kept with the mesh, so the solves do not validate again
        report = mesh_report(mesh)
        if report:
            raise ConfigError([f"mesh file {path}: {msg}" for msg in report])
        return mesh
    assert cfg.mesh_n is not None
    return generate_unit_square_mesh(cfg.mesh_n)


def _alpha(cfg: RunConfig) -> float:
    return cfg.alpha if cfg.alpha is not None else 1.0


def _build_data(cfg: RunConfig, mesh: Mesh) -> ProblemData:
    return ProblemData.make(
        mesh,
        g=compile_expression(cfg.g_text),
        q=compile_expression(cfg.q_text),
        b=cfg.b,
        alpha=_alpha(cfg),
    )


def _build_potential(cfg: RunConfig) -> Potential:
    if cfg.potential_id is None:
        raise ConfigError(["potential.id is required"])
    anchor = cfg.potential_b if cfg.potential_b is not None else cfg.b
    return make_potential(cfg.potential_id, b=anchor, **cfg.potential_params)


def _solution_csv(mesh: Mesh, values: np.ndarray) -> str:
    rows = np.column_stack((np.arange(mesh.num_vertices), mesh.vertices, values))
    return "\n".join(["vertex_id,x,y,u", *_format_rows("%d,%.17g,%.17g,%.17g", rows)]) + "\n"


def _certificate_csv(report: SolveReport) -> str:
    cert = report.certificate
    rows = [
        ("interior_residual_max", _fmt(cert.interior_residual_max)),
        ("gamma3_inclusion_max", _fmt(cert.gamma3_inclusion_max)),
        ("certificate_max", _fmt(max(cert.interior_residual_max, cert.gamma3_inclusion_max))),
        ("converged", "true" if report.converged else "false"),
        ("iterations", str(report.iterations)),
        ("linear_residual", _fmt(report.linear_residual)),
        ("norm_V", _fmt(report.solution.norm_v)),
        ("seminorm_V0", _fmt(report.solution.seminorm_v0)),
    ]
    return "key,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"


def _run_solve(cfg: RunConfig, out: Path) -> int:
    mesh = _build_mesh(cfg)
    data = _build_data(cfg, mesh)
    kind = cfg.problem_kind or "robin"
    if kind == "dirichlet":
        report = solve_dirichlet(mesh, data, cfg.solver)
    elif kind == "robin":
        report = solve_robin(mesh, data, cfg.solver)
    elif kind == "robin_lumped":
        report = solve_robin(mesh, data, cfg.solver, boundary_mass="lumped")
    elif kind in ("hvi", "vi"):
        report = solve_hvi(mesh, data, _build_potential(cfg), cfg.solver)
    else:  # pragma: no cover - guarded by parse_config
        raise ConfigError([f"unknown problem kind {kind!r}"])

    _write(out / "solution.csv", _solution_csv(mesh, report.solution.values))
    _write(out / "certificate.csv", _certificate_csv(report))
    if report.converged:
        return 0
    cert = report.certificate
    print(
        f"solve not certified: {report.stop(cfg.solver)} after {report.iterations} iterations, "
        f"interior_residual_max {cert.interior_residual_max:.3e}, "
        f"gamma3_inclusion_max {cert.gamma3_inclusion_max:.3e}",
        file=sys.stderr,
    )
    return 1


def _run_experiment(cfg: RunConfig, out: Path) -> int:
    exp = cfg.experiment_id
    if exp not in _EXPERIMENTS:  # pragma: no cover - guarded by parse_config
        raise ConfigError([f"unknown experiment {exp!r}"])
    experiment, params = _EXPERIMENTS[exp]
    given = dict(cfg.experiment)
    if cfg.alphas:
        given["alphas"] = cfg.alphas
    if "rate_lo" in given and "rate_hi" in given:
        given["rate_window"] = (given["rate_lo"], given["rate_hi"])
    kwargs = {key: given[key] for key in params if key in given}
    kwargs["opts"] = cfg.solver

    if exp == "refinement":  # builds its own meshes from experiment.n_list
        kind = cfg.problem_kind or "robin"
        report = experiment(
            alpha=_alpha(cfg),
            g=compile_expression(cfg.g_text),
            q=compile_expression(cfg.q_text),
            b=cfg.b,
            problem="hvi" if kind in ("hvi", "vi") else kind,
            p=_build_potential(cfg) if cfg.potential_id else None,
            **kwargs,
        )
    else:
        mesh = _build_mesh(cfg)
        data = _build_data(cfg, mesh)
        args = (mesh, data) if exp == "linear_theorem" else (mesh, data, _build_potential(cfg))
        if exp == "continuous_dependence":
            bump = compile_expression(cfg.experiment.get("bump", "x*(1-x)*y*(1-y)"))
            shape = bump(mesh.vertices[:, 0], mesh.vertices[:, 1])
            perturbed = [
                ProblemData(g=data.g + 2.0 ** (-k) * shape, q=data.q, b=data.b, alpha=data.alpha)
                for k in range(cfg.experiment.get("levels", 5))
            ]
            args += (perturbed,)
        report = experiment(*args, **kwargs)

    _write(out / f"{exp}.csv", report.to_csv())
    _write(out / "verdicts.txt", report.summary())
    return 0 if report.passed else 1


def describe_potential(
    pid: str, b: float = 0.0, params: dict[str, float] | None = None
) -> tuple[str, bool]:
    """Tabulate a potential and the verdicts of its hypothesis checks.

    The table straddles every breakpoint; the verdict block reports the
    growth bound, the anchor sign condition and its strict form, the
    relaxed-monotonicity constant, and the scaled pairwise sign condition.
    Returns the text and whether the growth bound and the sign condition
    hold, which ``check-potential``'s exit status reports.
    """
    p = make_potential(pid, b=b, **(params or {}))
    bps = p.breakpoints()
    points = {b - 2.0, b - 1.0, b - 0.5, b, b + 0.5, b + 1.0, b + 2.0}
    for bp in bps:
        points.update((bp - 0.25, bp, bp + 0.25))
    grid = sorted(points)

    lines = [f"potential {p.id} anchored at b = {b:g}"]
    if p.params():
        lines.append("parameters: " + ", ".join(f"{k} = {v:g}" for k, v in p.params().items()))
    lines.append(f"convex: {'yes' if p.convex else 'no'}")
    lines.append("")
    lines.append(f"{'r':>12}  {'j(r)':>14}  {'dj lo':>14}  {'dj hi':>14}  {'j0(r; b-r)':>14}")
    for r in grid:
        iv = p.subdiff(r)
        lines.append(
            f"{r:>12.6g}  {p.value(r):>14.6g}  {iv.lo:>14.6g}  {iv.hi:>14.6g}  "
            f"{p.j0(r, b - r):>14.6g}"
        )
    lines.append("")

    growth = check_growth(p)
    if growth.used_c0 is None:
        lines.append(
            f"growth bound: fail ({growth.details}); grid fit c0 = {growth.fitted_c0:.6g}, "
            f"c1 = {growth.fitted_c1:.6g}"
        )
    else:
        lines.append(
            f"growth bound |dj(r)| <= {growth.used_c0:.6g} + {growth.used_c1:.6g}|r|: "
            f"{'pass' if growth.passed else 'fail'} (worst margin {growth.worst_margin:.3e})"
        )
    sign = check_sign_condition(p)
    lines.append(
        f"sign condition j0(r; b-r) <= 0: {'pass' if sign.passed else 'fail'} "
        f"(worst {sign.worst_margin:.3e} at r = {sign.worst_point[0]:.6g})"
    )
    strict = check_strict_condition(p)
    lines.append(
        f"strict sign condition (zero only at r = b): {'pass' if strict.passed else 'fail'} "
        f"(worst off-anchor value {strict.worst_margin:.3e})"
    )
    lines.append(f"relaxed monotonicity constant: {p.m_j:.9g}")
    scaled = check_scaled_sign_condition(p)
    lines.append(
        f"scaled sign condition (coefficient monotonicity gate): "
        f"{'pass' if scaled.passed else 'fail'} (worst {scaled.worst_margin:.3e})"
    )
    return "\n".join(lines) + "\n", growth.passed and sign.passed


def _run_check_potential(cfg: RunConfig, out: Path) -> int:
    anchor = cfg.potential_b if cfg.potential_b is not None else cfg.b
    text, ok = describe_potential(cfg.potential_id or "", b=anchor, params=cfg.potential_params)
    sys.stdout.write(text)
    _write(out / "potential.txt", text)
    return 0 if ok else 1


def run(cfg: RunConfig, out_dir: str | Path) -> int:
    """Execute a validated configuration; returns the process exit status."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if cfg.command == "solve":
            return _run_solve(cfg, out)
        if cfg.command == "experiment":
            return _run_experiment(cfg, out)
        if cfg.command == "check-potential":
            return _run_check_potential(cfg, out)
        raise ConfigError([f"unknown command {cfg.command!r}"])
    except (ConfigError, FileNotFoundError, MeshFormatError, UnknownPotentialError) as exc:
        _write_error(out, exc, status=2)
        return 2
    except (PreconditionError, ValueError, RuntimeError) as exc:
        _write_error(out, exc, status=1)
        return 1


def _write_error(out: Path, exc: Exception, status: int) -> None:
    payload = {
        "error": type(exc).__name__,
        "message": str(exc),
        "status": status,
    }
    if isinstance(exc, FileNotFoundError):
        payload["path"] = str(exc).split(": ", 1)[-1]
    _write(out / "error.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _one_blas_thread() -> None:
    """Set numpy's and scipy's bundled OpenBLAS to one thread, unless the user chose a count.

    On a 2-core machine the small dense kernels of a solve ran 2-3 times
    slower in the median with OpenBLAS's default two threads.  A library or
    symbol that is not there (another BLAS, another build) is left alone.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    import ctypes

    for module, symbol in (
        ("numpy._core._multiarray_umath", "scipy_openblas_set_num_threads64_"),
        ("scipy.linalg._fblas", "scipy_openblas_set_num_threads"),
    ):
        path = getattr(sys.modules.get(module), "__file__", None)
        # the extension's handle also finds the symbols of the libraries it links
        set_threads = getattr(ctypes.CDLL(path), symbol, None) if path else None
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


def main(argv: list[str] | None = None) -> int:
    _one_blas_thread()
    parser = argparse.ArgumentParser(
        prog="hviheat",
        description="Finite-element solves and theory-checking experiments "
        "for mixed problems with a multivalued exchange boundary law.",
    )
    parser.add_argument("command", choices=COMMANDS, help="must match the config's command key")
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    out = Path(args.out)
    config_path = Path(args.config)
    if not config_path.exists():
        out.mkdir(parents=True, exist_ok=True)
        _write_error(out, FileNotFoundError(f"config file not found: {config_path}"), 2)
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(config_path.read_text(encoding="utf-8"))
    except ConfigError as exc:
        out.mkdir(parents=True, exist_ok=True)
        _write_error(out, exc, 2)
        for message in exc.errors:
            print(f"error: {message}", file=sys.stderr)
        return 2

    if cfg.command != args.command:
        out.mkdir(parents=True, exist_ok=True)
        mismatch = ConfigError(
            [f"config declares command={cfg.command} but the CLI invoked {args.command}"]
        )
        _write_error(out, mismatch, 2)
        print(f"error: {mismatch}", file=sys.stderr)
        return 2

    status = run(cfg, out)
    if status != 0:
        print(f"run finished with status {status}; see {out / 'error.json'} if present", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
