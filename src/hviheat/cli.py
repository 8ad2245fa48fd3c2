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
import sys
from dataclasses import dataclass, field
from pathlib import Path

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
from .mesh import Mesh, MeshFormatError, generate_unit_square_mesh, load_mesh
from .mesh import validate_mesh  # noqa: F401  (re-exported for code that reads it from here)
from .potentials import (
    Potential,
    UnknownPotentialError,
    check_growth,
    check_scaled_sign_condition,
    check_sign_condition,
    check_strict_condition,
    default_grid,
    estimate_relaxed_monotonicity,
    make_potential,
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
# The keys behind a parameter whose key is not ``experiment.<parameter>``, and
# the keys the CLI itself reads for an experiment.
_PARAM_KEYS = {
    "alphas": ("problem.alphas",),
    "rate_window": ("experiment.rate_lo", "experiment.rate_hi"),
}
_CLI_KEYS = {"continuous_dependence": ("experiment.levels", "experiment.bump")}


def _keys_read(command: str, experiment_id: str | None) -> set[str]:
    """The ``experiment.*`` keys and ``problem.alphas`` that a run reads."""
    keys = {"experiment.workers"}
    if command == "experiment":
        keys.update(("experiment.id", *_CLI_KEYS.get(experiment_id, ())))
        for name in _EXPERIMENTS[experiment_id][1]:
            keys.update(_PARAM_KEYS.get(name, (f"experiment.{name}",)))
    return keys


_KNOWN_KEYS = {
    "command",
    "mesh.n",
    "mesh.file",
    "problem.kind",
    "problem.g",
    "problem.q",
    "problem.b",
    "problem.alpha",
    "problem.alphas",
    "potential.id",
    "potential.b",
    "solver.tol_interior",
    "solver.tol_inclusion",
    "solver.max_iters",
    "experiment.id",
    "experiment.alpha_pairs",
    "experiment.override",
    "experiment.rel_target",
    "experiment.final_rel_target",
    "experiment.rate_lo",
    "experiment.rate_hi",
    "experiment.levels",
    "experiment.bump",
    "experiment.ratio_target",
    "experiment.ratio_tol",
    "experiment.n_list",
    "experiment.workers",
}
_PARAM_PREFIX = "potential.params."


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
    keys name both offending lines; an ``experiment.*`` key or
    ``problem.alphas`` that the command and experiment do not read names its
    line.  All collected errors are raised together as a ``ConfigError``.
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
            nearest = difflib.get_close_matches(key, sorted(_KNOWN_KEYS), n=1)
            hint = f"; did you mean '{nearest[0]}'?" if nearest else ""
            errors.append(f"line {lineno}: unknown key '{key}'{hint}")
            continue
        pairs[key] = (value, lineno)
    lines = {key: lineno for key, (_, lineno) in pairs.items()}

    def take(key: str) -> tuple[str, int] | None:
        return pairs.pop(key, None)

    def take_float(key: str, positive: bool = False) -> float | None:
        item = take(key)
        if item is None:
            return None
        value, lineno = item
        try:
            out = float(value)
        except ValueError:
            out = np.nan
        if not np.isfinite(out):
            errors.append(f"line {lineno}: {key} must be a finite number, got {value!r}")
            return None
        if positive and out <= 0.0:
            errors.append(f"line {lineno}: {key} must be positive")
            return None
        return out

    def take_int(key: str, minimum: int | None = None) -> int | None:
        item = take(key)
        if item is None:
            return None
        value, lineno = item
        try:
            out = int(value)
        except ValueError:
            errors.append(f"line {lineno}: {key} must be an integer, got {value!r}")
            return None
        if minimum is not None and out < minimum:
            errors.append(f"line {lineno}: {key} must be at least {minimum}")
            return None
        return out

    def take_choice(key: str, choices: tuple[str, ...]) -> tuple[str, int] | None:
        item = take(key)
        if item is None:
            return None
        value, lineno = item
        if value not in choices:
            errors.append(
                f"line {lineno}: {key} must be one of {', '.join(choices)}; got {value!r}"
            )
            return None
        return value, lineno

    def take_expression(key: str) -> str | None:
        item = take(key)
        if item is None:
            return None
        value, lineno = item
        try:
            compile_expression(value)
        except ExpressionError as exc:
            errors.append(f"line {lineno}: {key}: {exc}")
            return None
        return value

    def take_floats(key: str, positive: bool = False) -> tuple[float, ...] | None:
        item = take(key)
        if item is None:
            return None
        value, lineno = item
        try:
            out = tuple(float(part) for part in value.split(",") if part.strip())
        except ValueError:
            out = (np.nan,)
        if not out:
            errors.append(f"line {lineno}: {key} is empty; list at least one number")
            return None
        if not np.all(np.isfinite(out)):
            errors.append(f"line {lineno}: {key} must be comma-separated finite numbers")
            return None
        if positive and min(out) <= 0.0:
            errors.append(f"line {lineno}: {key} must all be positive")
            return None
        return out

    command_item = take_choice("command", COMMANDS)
    if command_item is None and not any("command" in e for e in errors):
        errors.append("missing required key 'command'")
    cfg = RunConfig(command=command_item[0] if command_item else "solve")

    cfg.mesh_n = take_int("mesh.n", minimum=1)
    file_item = take("mesh.file")
    cfg.mesh_file = file_item[0] if file_item else None
    if cfg.mesh_n is not None and cfg.mesh_file is not None:
        errors.append("mesh.n and mesh.file are mutually exclusive")

    kind_item = take_choice("problem.kind", PROBLEM_KINDS)
    cfg.problem_kind = kind_item[0] if kind_item else None

    g_text = take_expression("problem.g")
    if g_text is not None:
        cfg.g_text = g_text
    q_text = take_expression("problem.q")
    if q_text is not None:
        cfg.q_text = q_text
    b = take_float("problem.b")
    if b is not None:
        cfg.b = b

    cfg.alpha = take_float("problem.alpha", positive=True)
    cfg.alphas = take_floats("problem.alphas", positive=True)

    pid_item = take("potential.id")
    cfg.potential_id = pid_item[0] if pid_item else None
    cfg.potential_b = take_float("potential.b")
    for key in sorted(k for k in pairs if k.startswith(_PARAM_PREFIX)):
        value = take_float(key)
        if value is not None:
            cfg.potential_params[key[len(_PARAM_PREFIX):]] = value

    solver_kwargs: dict[str, object] = {}
    for name in ("tol_interior", "tol_inclusion"):
        value = take_float(f"solver.{name}", positive=True)
        if value is not None:
            solver_kwargs[name] = value
    max_iters = take_int("solver.max_iters", minimum=0)
    if max_iters is not None:
        solver_kwargs["max_iters"] = max_iters
    cfg.solver = SolverOptions(**solver_kwargs)  # type: ignore[arg-type]

    exp_item = take_choice("experiment.id", EXPERIMENTS)
    cfg.experiment_id = exp_item[0] if exp_item else None
    pairs_item = take("experiment.alpha_pairs")
    if pairs_item is not None:
        value, lineno = pairs_item
        try:
            parsed_pairs = tuple(
                tuple(float(x) for x in chunk.split(":")) for chunk in value.split(",")
            )
            if any(len(p) != 2 for p in parsed_pairs):
                raise ValueError
        except ValueError:
            errors.append(
                f"line {lineno}: experiment.alpha_pairs must look like '1:10,10:100'"
            )
        else:
            if all(0 < a1 <= a2 < np.inf for a1, a2 in parsed_pairs):
                cfg.experiment["alpha_pairs"] = parsed_pairs
            else:
                errors.append(
                    f"line {lineno}: experiment.alpha_pairs must be finite pairs "
                    f"a1:a2 with 0 < a1 <= a2, got {value!r}"
                )
    override = take_choice("experiment.override", ("true", "false"))
    if override is not None:
        cfg.experiment["override"] = override[0] == "true"
    for name in ("rel_target", "final_rel_target", "rate_lo", "rate_hi", "ratio_target", "ratio_tol"):
        value = take_float(f"experiment.{name}")
        if value is not None:
            cfg.experiment[name] = value
    levels = take_int("experiment.levels", minimum=1)
    if levels is not None:
        cfg.experiment["levels"] = levels
    bump = take_expression("experiment.bump")
    if bump is not None:
        cfg.experiment["bump"] = bump
    n_list_item = take("experiment.n_list")
    if n_list_item is not None:
        value, lineno = n_list_item
        try:
            n_list = tuple(int(part) for part in value.split(","))
        except ValueError:
            errors.append(f"line {lineno}: experiment.n_list must be comma-separated integers")
        else:
            if n_list[0] >= 1 and all(a < b for a, b in zip(n_list, n_list[1:])):
                cfg.experiment["n_list"] = n_list
            else:
                errors.append(
                    f"line {lineno}: experiment.n_list must be increasing integers "
                    f"of at least 1, got {value!r}"
                )
    if take_int("experiment.workers") not in (None, 1):
        errors.append(
            f"line {lines['experiment.workers']}: experiment.workers must be 1; "
            "experiments run sequentially"
        )
    if command_item and (cfg.command != "experiment" or cfg.experiment_id):
        read = _keys_read(cfg.command, cfg.experiment_id)
        reader = cfg.experiment_id if cfg.command == "experiment" else cfg.command
        errors.extend(
            f"line {lineno}: {key} is not read by {reader}"
            for key, lineno in lines.items()
            if (key.startswith("experiment.") or key == "problem.alphas") and key not in read
        )
        rate = [key for key in ("experiment.rate_lo", "experiment.rate_hi") if key in lines]
        if len(rate) == 1 and rate[0] in read:
            errors.append(
                f"line {lines[rate[0]]}: experiment.rate_lo and experiment.rate_hi go together"
            )

    # cross-field requirements
    if not errors:
        if cfg.command in ("solve", "experiment") and cfg.mesh_n is None and cfg.mesh_file is None:
            errors.append("either mesh.n or mesh.file is required")
        if cfg.command == "solve":
            kind = cfg.problem_kind or ("hvi" if cfg.potential_id else "robin")
            cfg.problem_kind = kind
            if cfg.alpha is None and kind != "dirichlet":
                errors.append("problem.alpha is required for this problem kind")
            if kind in ("hvi", "vi") and cfg.potential_id is None:
                errors.append("potential.id is required for the multivalued problem kinds")
        if cfg.command == "experiment" and cfg.experiment_id is None:
            errors.append("experiment.id is required for command=experiment")
        if cfg.command == "experiment" and cfg.experiment_id == "refinement" and kind_item:
            kind, lineno = kind_item
            if kind == "robin_lumped":
                errors.append(
                    f"line {lineno}: the refinement study takes problem.kind dirichlet, "
                    f"robin, hvi or vi, not {kind}"
                )
            elif kind in ("hvi", "vi") and cfg.potential_id is None:
                errors.append(f"line {lineno}: problem.kind = {kind} needs a potential.id")
        if cfg.command == "check-potential" and cfg.potential_id is None:
            errors.append("potential.id is required for command=check-potential")

    if errors:
        raise ConfigError(errors)
    return cfg


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
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


def _build_data(cfg: RunConfig, mesh: Mesh) -> ProblemData:
    return ProblemData.make(
        mesh,
        g=compile_expression(cfg.g_text),
        q=compile_expression(cfg.q_text),
        b=cfg.b,
        alpha=cfg.alpha if cfg.alpha is not None else 1.0,
    )


def _build_potential(cfg: RunConfig) -> Potential:
    if cfg.potential_id is None:
        raise ConfigError(["potential.id is required"])
    anchor = cfg.potential_b if cfg.potential_b is not None else cfg.b
    return make_potential(cfg.potential_id, b=anchor, **cfg.potential_params)


def _solution_csv(mesh: Mesh, values: np.ndarray) -> str:
    lines = ["vertex_id,x,y,u"]
    for vid, ((x, y), u) in enumerate(zip(mesh.vertices, values)):
        lines.append(f"{vid},{_fmt(x)},{_fmt(y)},{_fmt(u)}")
    return "\n".join(lines) + "\n"


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
    return 0 if report.converged else 1


def _run_experiment(cfg: RunConfig, out: Path) -> int:
    mesh = _build_mesh(cfg)
    data = _build_data(cfg, mesh)
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

    if exp == "refinement":
        kind = cfg.problem_kind or "robin"
        args = ()
        kwargs.update(
            alpha=data.alpha,
            g=compile_expression(cfg.g_text),
            q=compile_expression(cfg.q_text),
            b=cfg.b,
            problem="hvi" if kind in ("hvi", "vi") else kind,
            p=_build_potential(cfg) if cfg.potential_id else None,
        )
    elif exp == "continuous_dependence":
        bump = compile_expression(cfg.experiment.get("bump", "x*(1-x)*y*(1-y)"))
        shape = bump(mesh.vertices[:, 0], mesh.vertices[:, 1])
        perturbed = [
            ProblemData(g=data.g + 2.0 ** (-k) * shape, q=data.q, b=data.b, alpha=data.alpha)
            for k in range(cfg.experiment.get("levels", 5))
        ]
        args = (mesh, data, _build_potential(cfg), perturbed)
    elif exp == "linear_theorem":
        args = (mesh, data)
    else:
        args = (mesh, data, _build_potential(cfg))
    report = experiment(*args, **kwargs)

    _write(out / f"{exp}.csv", report.to_csv())
    _write(out / "verdicts.txt", report.summary())
    return 0 if report.passed else 1


def describe_potential(pid: str, b: float = 0.0, params: dict[str, float] | None = None) -> str:
    """Tabulate a potential and the verdicts of its hypothesis checks.

    The table straddles every breakpoint; the verdict block reports the
    growth bound, the anchor sign condition and its strict form, the sampled
    relaxed-monotonicity constant, and the scaled pairwise sign condition.
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

    grid_full = default_grid(p)
    growth = check_growth(p, grid_full)
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
    sign = check_sign_condition(p, grid_full)
    lines.append(
        f"sign condition j0(r; b-r) <= 0: {'pass' if sign.passed else 'fail'} "
        f"(worst {sign.worst_margin:.3e} at r = {sign.worst_point[0]:.6g})"
    )
    strict = check_strict_condition(p, grid_full)
    lines.append(
        f"strict sign condition (zero only at r = b): {'pass' if strict.passed else 'fail'} "
        f"(worst off-anchor value {strict.worst_margin:.3e})"
    )
    m_j = estimate_relaxed_monotonicity(p)
    declared = "" if p.m_j is None else f" (declared {p.m_j:g})"
    lines.append(f"relaxed monotonicity constant estimate: {m_j:.9g}{declared}")
    scaled = check_scaled_sign_condition(p)
    lines.append(
        f"scaled sign condition (coefficient monotonicity gate): "
        f"{'pass' if scaled.passed else 'fail'} (worst {scaled.worst_margin:.3e})"
    )
    return "\n".join(lines) + "\n"


def _run_check_potential(cfg: RunConfig, out: Path) -> int:
    anchor = cfg.potential_b if cfg.potential_b is not None else cfg.b
    text = describe_potential(cfg.potential_id or "", b=anchor, params=cfg.potential_params)
    sys.stdout.write(text)
    _write(out / "potential.txt", text)
    p = make_potential(cfg.potential_id or "", b=anchor, **cfg.potential_params)
    ok = check_growth(p).passed and check_sign_condition(p).passed
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hviheat",
        description="Finite-element solves and theory-checking experiments "
        "for mixed problems with a multivalued exchange boundary law.",
    )
    sub = parser.add_subparsers(dest="cli_command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the run configuration")
        cmd.add_argument("--out", required=True, help="output directory")
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

    if cfg.command != args.cli_command:
        out.mkdir(parents=True, exist_ok=True)
        mismatch = ConfigError(
            [f"config declares command={cfg.command} but the CLI invoked {args.cli_command}"]
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
