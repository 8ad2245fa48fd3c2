import ctypes
import json
import re
import sys

import numpy as np
import pytest

import hviheat.cli
import hviheat.potentials
from hviheat.assembly import ProblemData
from hviheat.cli import (
    EXPERIMENTS,
    ConfigError,
    _one_blas_thread,
    describe_potential,
    main,
    parse_config,
    run,
)
from hviheat.expressions import MAX_DEPTH, ExpressionError, compile_expression
from hviheat.mesh import BoundaryTag, Mesh, generate_unit_square_mesh, save_mesh
from hviheat.potentials import make_potential
from hviheat.verification import (
    refinement_study,
    verify_alpha_convergence,
    verify_comparison,
    verify_continuous_dependence,
    verify_linear_theorem,
    verify_monotonicity,
)
from oracles import robin_reference

MINIMAL = """
command = solve
mesh.n = 8
problem.b = 1
problem.alpha = 10
potential.id = quadratic
"""


class TestExpressions:
    def test_constants_and_polynomials(self):
        f = compile_expression("2 + x*y - x**2")
        assert f(3.0, 4.0) == 2.0 + 12.0 - 9.0

    def test_exp_and_unary_minus(self):
        f = compile_expression("-exp(-x)*y**2")
        assert f(0.0, 2.0) == -4.0

    def test_vectorized_over_arrays(self):
        f = compile_expression("x*(1-x)*y*(1-y)")
        x = np.array([0.0, 0.5, 1.0])
        y = np.array([0.5, 0.5, 0.5])
        assert np.allclose(f(x, y), [0.0, 0.0625, 0.0])

    def test_division(self):
        assert compile_expression("x/4")(2.0, 0.0) == 0.5

    @pytest.mark.parametrize(
        "text,value",
        [("-x**2", -9.0), ("-2**2", -4.0), ("2**-1", 0.5), ("2**3**2", 512.0), ("(-2)**2", 4.0)],
    )
    def test_power_binds_tighter_than_unary_minus(self, text, value):
        # Python's rule: a sign applies to the whole power, and an exponent may carry one
        assert compile_expression(text)(3.0, 0.0) == value

    @pytest.mark.parametrize("bad", ["z + 1", "x +", "(x", "x @ y", "", "sin(x)"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ExpressionError):
            compile_expression(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            "x.real", "x[0]", "lambda x: x", "__import__('os')", "__import__(x)", "x < 1",
            "x if y else 1", "exp(x, y)", "exp(x=1)", "exp()", "exp(*x)", "exp(**x)", "exp",
            "exp(x)(y)", "1j", "True", "None", "...", "0x10", "0o7", "0b1", "1_0", "007",
            "x // 2", "x % 2", "not x", "x and y", "x, y", "()", "x # 2", "x\n+1", "\u00b2",
            "\U0001d465",  # mathematical italic x, which Python would read as x
        ],
    )
    def test_rejects_everything_outside_the_whitelist(self, bad):
        with pytest.raises(ExpressionError) as info:
            compile_expression(bad)
        assert 0 <= info.value.position <= len(bad)

    @pytest.mark.parametrize(
        "text,position,message",
        [
            ("x +", 3, "incomplete expression"),
            ("  (x", 2, "'(' was never closed"),
            ("x @ y", 2, "unexpected character '@'"),
            ("2 * 0x10", 4, "'0x10' is not allowed"),
            ("1 + sin(x)", 4, "'sin(x)' is not allowed"),
            ("-" * (MAX_DEPTH + 1) + "x", MAX_DEPTH, f"nested deeper than {MAX_DEPTH}"),
        ],
    )
    def test_error_positions(self, text, position, message):
        with pytest.raises(ExpressionError, match=re.escape(message)) as info:
            compile_expression(text)
        assert info.value.position == position

    def test_values_are_the_numpy_operations_in_order(self):
        # a constant is c + 0*x, operands are evaluated left to right: the
        # values match the numpy expression bit for bit
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-2.0, 2.0, (2, 500))
        f = compile_expression("-1.03 - 0.51*x*y + exp(-x)/(2 + y**2)**-0.5")
        c = [value + 0.0 * x for value in (1.03, 0.51, 2.0, 0.5)]
        expected = -c[0] - c[1] * x * y + np.exp(-x) / (c[2] + y ** (c[2] + 0.0 * x)) ** -c[3]
        assert f(x, y).tobytes() == expected.tobytes()
        assert compile_expression("2")(x, y).shape == x.shape
        assert compile_expression(" x*y ").text == " x*y "

    def test_size_limit_on_both_sides(self):
        inside = [
            "+".join(["x"] * MAX_DEPTH),  # 200 terms
            "-" * (MAX_DEPTH - 1) + "x",
            "(" * 50 + "x" + ")" * 50,
            "1" + "+(1" * 50 + ")" * 50,
            "+".join(["0.5*x*y"] * 100),
        ]
        assert [compile_expression(t)(1.0, 1.0) for t in inside] == [200.0, -1.0, 1.0, 51.0, 50.0]
        outside = [
            "+".join(["x"] * (MAX_DEPTH + 1)),
            "-" * MAX_DEPTH + "x",
            "-" * 1000 + "x",
            "(" * 300 + "x" + ")" * 300,  # Python's own limit is 200 parentheses
            "+".join(["x"] * 1500),
            "-" * 20000 + "x",  # Python's parser gives up
            "x" + "**x" * 5000,
        ]
        for text in outside:
            with pytest.raises(ExpressionError):
                compile_expression(text)

    def test_no_input_raises_anything_else(self):
        rng = np.random.default_rng(11)
        pieces = list("xy0123456789.eE+-*/()  ,_j") + ["exp(", "**", "1.5", "if", "not", "//"]
        for _ in range(3000):
            text = "".join(rng.choice(pieces, rng.integers(0, 12)))
            try:
                with np.errstate(all="ignore"):
                    compile_expression(text)(np.array([0.5, -1.0]), np.array([2.0, 0.0]))
            except ExpressionError:
                pass


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = parse_config(MINIMAL)
        assert cfg.command == "solve"
        assert cfg.mesh_n == 8
        assert cfg.b == 1.0
        assert cfg.alpha == 10.0
        assert cfg.potential_id == "quadratic"
        assert cfg.problem_kind == "hvi"  # defaulted because a potential is given

    def test_negative_alpha_rejected(self):
        bad = MINIMAL.replace("problem.alpha = 10", "problem.alpha = -1")
        with pytest.raises(ConfigError, match="problem.alpha must be positive"):
            parse_config(bad)

    @pytest.mark.parametrize(
        "line,message",
        [
            ("solver.tol_inclusion = nan", "solver.tol_inclusion must be a finite number"),
            ("solver.tol_interior = -1", "solver.tol_interior must be positive"),
            ("solver.tol_inclusion = 0", "solver.tol_inclusion must be positive"),
            ("problem.alpha = nan", "problem.alpha must be a finite number, got 'nan'"),
            ("problem.b = inf", "problem.b must be a finite number, got 'inf'"),
            ("problem.b = ten", "problem.b must be a finite number, got 'ten'"),
            ("problem.alphas = 1,nan", "problem.alphas must be comma-separated finite numbers"),
            ("experiment.rel_target = -inf", "experiment.rel_target must be a finite number"),
            ("potential.params.beta = nan", "potential.params.beta must be a finite number"),
            ("potential.params.foo = 2", "potential.params.foo is not a parameter of quadratic"),
            ("potential.params.b = 1", "potential.params.b is not a parameter of quadratic"),
            (
                "experiment.alpha_pairs = nan:10",
                "experiment.alpha_pairs must be finite pairs a1:a2 with 0 < a1 <= a2, got 'nan:10'",
            ),
            (
                "experiment.alpha_pairs = 1:10,10:1",
                "experiment.alpha_pairs must be finite pairs a1:a2 with 0 < a1 <= a2",
            ),
            ("experiment.alpha_pairs = 0:1", "experiment.alpha_pairs must be finite pairs"),
            ("experiment.alpha_pairs = 1:inf", "experiment.alpha_pairs must be finite pairs"),
            (
                "experiment.n_list = 0,4",
                "experiment.n_list must be increasing integers of at least 1, got '0,4'",
            ),
            ("experiment.n_list = 4,4", "experiment.n_list must be increasing integers"),
            ("experiment.n_list = 8,4", "experiment.n_list must be increasing integers"),
            ("problem.alphas =", "problem.alphas is empty; list at least one number"),
            ("problem.alphas = 1,-2", "problem.alphas must all be positive"),
            (
                "experiment.workers = 2",
                "experiment.workers must be 1; experiments run sequentially",
            ),
            ("experiment.ratio_tol = 0.25", "experiment.ratio_tol is not read by solve"),
        ],
    )
    def test_non_finite_or_meaningless_number_exits_2_naming_the_line(
        self, tmp_path, line, message
    ):
        config = tmp_path / "run.cfg"
        config.write_text(f"command = solve\nmesh.n = 4\npotential.id = quadratic\n{line}\n")
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ConfigError"
        assert f"line 4: {message}" in payload["message"]

    @pytest.mark.parametrize(
        "exp,line,message",
        [
            (
                "refinement",
                "problem.kind = robin_lumped",
                "the refinement study takes problem.kind dirichlet, robin, hvi or vi, "
                "not robin_lumped",
            ),
            ("refinement", "problem.kind = hvi", "problem.kind = hvi needs a potential.id"),
            ("refinement", "problem.kind = vi", "problem.kind = vi needs a potential.id"),
            (
                "comparison",
                "experiment.rel_target = 3",
                "experiment.rel_target is not read by comparison",
            ),
            (
                "linear_theorem",
                "experiment.n_list = 2,4",
                "experiment.n_list is not read by linear_theorem",
            ),
            (
                "alpha_convergence",
                "experiment.rate_hi = 2",
                "experiment.rate_lo and experiment.rate_hi go together",
            ),
            ("linear_theorem", "potential.id = abs", "potential.id is not read by linear_theorem"),
            ("comparison", "problem.kind = robin", "problem.kind is not read by comparison"),
        ],
    )
    def test_experiment_setting_it_cannot_run_exits_2_naming_the_line(
        self, tmp_path, exp, line, message
    ):
        config = tmp_path / "run.cfg"
        config.write_text(f"command = experiment\nexperiment.id = {exp}\nmesh.n = 4\n{line}\n")
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ConfigError"
        assert f"line 4: {message}" in payload["message"]

    @pytest.mark.parametrize(
        "command, head",
        [
            ("solve", "problem.kind = vi\nproblem.alpha = 10"),
            ("experiment", "experiment.id = refinement\nproblem.kind = vi"),
        ],
    )
    @pytest.mark.parametrize("potential", ["exp_quadratic", "min_quadratics"])
    def test_vi_with_a_nonconvex_potential_exits_2_naming_the_line(
        self, tmp_path, command, head, potential
    ):
        config = tmp_path / "run.cfg"
        config.write_text(f"command = {command}\nmesh.n = 4\n{head}\npotential.id = {potential}\n")
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ConfigError"
        assert payload["message"] == (
            f"line 5: {potential} is not convex, and problem.kind = vi is hvi restricted to convex j"
        )

    def test_vi_takes_min_quadratics_with_equal_curvatures(self, tmp_path):
        # with k1 = k2 the lower parabola wins everywhere, so the potential is convex
        config = tmp_path / "run.cfg"
        config.write_text(
            "command = solve\nmesh.n = 4\nproblem.kind = vi\nproblem.g = -1\nproblem.b = 1\n"
            "problem.alpha = 10\npotential.id = min_quadratics\npotential.params.k2 = 1\n"
        )
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize(
        "head,line,message",
        [
            ("solve\nproblem.kind = robin", "potential.id = abs",
             "potential.id is not read by solve with problem.kind = robin"),
            ("solve\nproblem.kind = dirichlet", "potential.b = 2",
             "potential.b is not read by solve with problem.kind = dirichlet"),
            ("solve\nproblem.kind = dirichlet", "problem.alpha = 3",
             "problem.alpha is not read by solve with problem.kind = dirichlet"),
            ("solve\nproblem.kind = robin_lumped", "potential.params.k1 = 2",
             "potential.params.k1 is not read by solve with problem.kind = robin_lumped"),
            ("check-potential\npotential.id = abs", "mesh.n = 4", "mesh.n is not read by check-potential"),
            ("check-potential\npotential.id = abs", "solver.max_iters = 3",
             "solver.max_iters is not read by check-potential"),
            ("check-potential\npotential.id = abs", "problem.alpha = 1",
             "problem.alpha is not read by check-potential"),
        ],
    )
    def test_key_the_run_does_not_read_exits_2_naming_the_line(self, tmp_path, head, line, message):
        command = head.split("\n")[0]
        config = tmp_path / "run.cfg"
        config.write_text(f"command = {head}\n{line}\n")
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ConfigError"
        assert payload["message"] == f"line 3: {message}"

    def test_duplicate_key_names_both_lines(self):
        text = "command = solve\nmesh.n = 4\nproblem.alpha = 1\nmesh.n = 8\n"
        with pytest.raises(ConfigError, match=r"duplicate key mesh.n \(lines 2 and 4\)"):
            parse_config(text)

    def test_unknown_key_suggests_nearest(self):
        text = MINIMAL + "problm.b = 2\n"
        with pytest.raises(ConfigError, match="did you mean 'problem.b'"):
            parse_config(text)

    def test_mesh_sources_mutually_exclusive(self):
        text = MINIMAL + "mesh.file = some.mesh\n"
        with pytest.raises(ConfigError, match="mutually exclusive"):
            parse_config(text)

    def test_bad_expression_carries_line(self):
        text = MINIMAL + "problem.g = x +\n"
        with pytest.raises(ConfigError, match="problem.g"):
            parse_config(text)

    def test_experiment_requires_id(self):
        text = "command = experiment\nmesh.n = 4\nproblem.alpha = 1\n"
        with pytest.raises(ConfigError, match="experiment.id"):
            parse_config(text)

    def test_errors_come_in_check_order(self):
        # error.json lists the messages in this order: line syntax, duplicate
        # and unknown keys in line order, then each key's checks in table
        # order, then keys the run does not read
        text = (
            "command = solve\nmesh.n = 4\nmesh.file = square.mesh\nproblem.alpah = 1\n"
            "mesh.n = 3\nproblem.g = x +\npotential.id = quadratic\n"
            "potential.params.k1 = 2\nexperiment.rel_target = 3\nsolver.max_iters = -1\n"
            "no equals sign\n"
        )
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.errors == (
            "line 4: unknown key 'problem.alpah'; did you mean 'problem.alpha'?",
            "duplicate key mesh.n (lines 2 and 5)",
            "line 11: expected 'section.key = value'",
            "mesh.n and mesh.file are mutually exclusive",
            "line 6: problem.g: incomplete expression (at position 3)",
            "line 8: potential.params.k1 is not a parameter of quadratic",
            "line 10: solver.max_iters must be at least 0",
            "line 9: experiment.rel_target is not read by solve",
        )

    def test_solver_options_and_params_forwarded(self):
        text = (
            MINIMAL
            + "solver.max_iters = 77\npotential.params.k1 = 2\n"
            + "potential.id2 = oops\n"
        )
        with pytest.raises(ConfigError, match="potential.id2"):
            parse_config(text)
        cfg = parse_config(
            MINIMAL.replace("quadratic", "min_quadratics")
            + "solver.max_iters = 77\npotential.params.k1 = 2\n"
        )
        assert cfg.solver.max_iters == 77
        assert cfg.potential_params == {"k1": 2.0}

    def test_comments_ignored(self):
        cfg = parse_config(MINIMAL + "# a comment\n   \n")
        assert cfg.mesh_n == 8


class TestRun:
    def test_solve_writes_solution_and_certificate(self, tmp_path):
        cfg = parse_config(MINIMAL)
        status = run(cfg, tmp_path)
        assert status == 0
        lines = (tmp_path / "solution.csv").read_text().splitlines()
        assert lines[0] == "vertex_id,x,y,u"
        assert len(lines) == 1 + 81
        cert = dict(
            line.split(",", 1)
            for line in (tmp_path / "certificate.csv").read_text().splitlines()[1:]
        )
        assert cert["converged"] == "true"
        assert float(cert["certificate_max"]) <= 1e-8

    def test_missing_mesh_file_exits_2_with_error_file(self, tmp_path):
        cfg = parse_config(
            "command = solve\nmesh.file = /no/such/mesh.txt\nproblem.alpha = 1\n"
        )
        status = run(cfg, tmp_path)
        assert status == 2
        payload = json.loads((tmp_path / "error.json").read_text())
        assert payload["status"] == 2
        assert "/no/such/mesh.txt" in payload["message"]

    def test_mesh_file_roundtrip_solve(self, tmp_path):
        mesh_path = tmp_path / "square.mesh"
        mesh_path.write_text(save_mesh(generate_unit_square_mesh(4)))
        cfg = parse_config(
            f"command = solve\nmesh.file = {mesh_path}\nproblem.kind = robin\n"
            "problem.b = 1\nproblem.alpha = 9\n"
        )
        assert run(cfg, tmp_path / "out") == 0
        rows = (tmp_path / "out" / "solution.csv").read_text().splitlines()[1:]
        values = {float(r.split(",")[1]): float(r.split(",")[3]) for r in rows}
        assert abs(values[1.0] - 0.9) <= 1e-10

    @pytest.mark.parametrize("kind", ["dirichlet", "robin", "hvi"])
    def test_mesh_file_with_interface_vertex_certifies(self, tmp_path, kind):
        # G3 on x=1 and on y=1, so it meets G1 (x=0) at the declared vertex (0, 1)
        n = 6
        m = generate_unit_square_mesh(n)
        top = m.vertices[m.boundary_edges][:, :, 1].min(axis=1) == 1.0
        tags = tuple(BoundaryTag.GAMMA3 if t else tag for t, tag in zip(top, m.boundary_tags))
        corner = n * (n + 1)
        mesh = Mesh(m.vertices, m.triangles, m.boundary_edges, tags, interface_vertices=(corner,))
        mesh_path = tmp_path / "corner.mesh"
        mesh_path.write_text(save_mesh(mesh))
        text = (
            f"command = solve\nmesh.file = {mesh_path}\nproblem.kind = {kind}\n"
            "problem.g = 2\nproblem.q = 0.5\nproblem.b = 0.5\n"
        )
        if kind != "dirichlet":  # the Dirichlet limit problem reads no alpha
            text += "problem.alpha = 3\n"
        if kind == "hvi":
            text += "potential.id = exp_quadratic\n"
        assert run(parse_config(text), tmp_path / "out") == 0
        cert = dict(
            line.split(",", 1)
            for line in (tmp_path / "out" / "certificate.csv").read_text().splitlines()[1:]
        )
        assert cert["converged"] == "true"
        assert float(cert["certificate_max"]) <= 1e-8
        rows = (tmp_path / "out" / "solution.csv").read_text().splitlines()[1:]
        u = np.array([float(r.split(",")[3]) for r in rows])
        assert u[corner] == 0.0  # the G1 condition wins at the interface vertex
        if kind == "dirichlet":
            g3_edges = m.boundary_edges[np.array(tags) == BoundaryTag.GAMMA3]
            g3 = np.setdiff1d(np.unique(g3_edges), [corner])
            assert np.all(u[g3] == 0.5)

    def test_non_finite_mesh_vertex_exits_2_naming_the_file(self, tmp_path):
        text = save_mesh(generate_unit_square_mesh(2)).splitlines()
        text[2 + 4] = "nan 0.25"  # vertex 4, after the header and the count line
        mesh_path = tmp_path / "square.mesh"
        mesh_path.write_text("\n".join(text) + "\n")
        cfg = parse_config(
            f"command = solve\nmesh.file = {mesh_path}\nproblem.kind = robin\n"
            "problem.g = -1\nproblem.b = 1\nproblem.alpha = 9\n"
        )
        assert run(cfg, tmp_path / "out") == 2
        payload = json.loads((tmp_path / "out" / "error.json").read_text())
        assert payload["error"] == "ConfigError"
        assert payload["message"] == f"mesh file {mesh_path}: vertex 4 has non-finite coordinates"

    def test_alpha_convergence_experiment_csv_decreasing(self, tmp_path):
        cfg = parse_config(
            "command = experiment\nexperiment.id = alpha_convergence\nmesh.n = 8\n"
            "problem.b = 1\nproblem.alphas = 1,10,100\npotential.id = quadratic\n"
        )
        assert run(cfg, tmp_path) == 0
        lines = (tmp_path / "alpha_convergence.csv").read_text().splitlines()
        errs = [float(line.split(",")[4]) for line in lines[1:]]
        assert all(errs[k] > errs[k + 1] for k in range(len(errs) - 1))

    def test_experiment_reruns_byte_identical(self, tmp_path):
        text = (
            "command = experiment\nexperiment.id = comparison\nmesh.n = 8\n"
            "problem.g = -1\nproblem.q = 0.5\nproblem.b = 1\nproblem.alphas = 1,10\n"
            "potential.id = exp_quadratic\n"
        )
        cfg = parse_config(text)
        run(cfg, tmp_path / "a")
        run(parse_config(text), tmp_path / "b")
        assert (tmp_path / "a" / "comparison.csv").read_bytes() == (
            tmp_path / "b" / "comparison.csv"
        ).read_bytes()

    def test_uncertified_linear_solve_exits_1(self, tmp_path):
        # the large load leaves an interior residual above tol_interior = 1e-9
        config = tmp_path / "run.cfg"
        config.write_text(
            "command = solve\nmesh.n = 64\nproblem.kind = robin\nproblem.alpha = 1\n"
            "problem.g = -1e7\n"
        )
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        cert = dict(
            line.split(",", 1)
            for line in (tmp_path / "out" / "certificate.csv").read_text().splitlines()[1:]
        )
        assert float(cert["interior_residual_max"]) > 1e-9
        assert cert["converged"] == "false"

    def test_precondition_failure_exits_1(self, tmp_path):
        cfg = parse_config(
            "command = experiment\nexperiment.id = comparison\nmesh.n = 4\n"
            "problem.g = 1\nproblem.b = 1\nproblem.alpha = 1\npotential.id = quadratic\n"
        )
        assert run(cfg, tmp_path) == 1
        payload = json.loads((tmp_path / "error.json").read_text())
        assert payload["error"] == "PreconditionError"

    @pytest.mark.parametrize(
        "command,text",
        [
            ("solve", MINIMAL),
            (
                "experiment",
                "command = experiment\nexperiment.id = comparison\nmesh.n = 8\n"
                "problem.g = -1\nproblem.q = 0.5\nproblem.b = 1\nproblem.alphas = 1,10\n"
                "potential.id = exp_quadratic\n",
            ),
        ],
    )
    def test_workers_1_leaves_every_output_byte_identical(self, tmp_path, command, text):
        outputs = []
        for name, config_text in (("plain", text), ("workers", text + "experiment.workers = 1\n")):
            config = tmp_path / f"{name}.cfg"
            config.write_text(config_text)
            out = tmp_path / name
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
            outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 2

    def test_unknown_potential_exits_2_and_lists_ids(self, tmp_path):
        cfg = parse_config(MINIMAL.replace("quadratic", "mystery"))
        assert run(cfg, tmp_path) == 2
        payload = json.loads((tmp_path / "error.json").read_text())
        assert "exp_quadratic" in payload["message"]
        assert "abs" in payload["message"]


def cli_perturbations(m, d):
    """The CLI's default continuous-dependence perturbations: 5 levels of its bump."""
    x, y = m.vertices.T
    bump = x * (1 - x) * y * (1 - y)
    return [ProblemData(g=d.g + 2.0**-k * bump, q=d.q, b=d.b, alpha=d.alpha) for k in range(5)]


# Each experiment called through the library with only its required
# arguments, on the data and potential of ``DEFAULTS_CONFIG``.
LIBRARY_CALLS = {
    "linear_theorem": lambda m, d, p: verify_linear_theorem(m, d),
    "comparison": lambda m, d, p: verify_comparison(m, d, p),
    "monotonicity": lambda m, d, p: verify_monotonicity(m, d, p),
    "alpha_convergence": lambda m, d, p: verify_alpha_convergence(m, d, p),
    "continuous_dependence": lambda m, d, p: verify_continuous_dependence(
        m, d, p, cli_perturbations(m, d)
    ),
    "refinement": lambda m, d, p: refinement_study(alpha=2.0, g=-1.0, q=0.5, b=1.0, p=p),
}
DEFAULTS_CONFIG = (
    "command = experiment\nmesh.n = 6\nproblem.g = -1\nproblem.q = 0.5\nproblem.b = 1\n"
    "problem.alpha = 2\n"
)


class TestExperimentDefaults:
    @pytest.mark.parametrize("exp", EXPERIMENTS)
    def test_cli_and_library_share_one_set_of_defaults(self, tmp_path, exp):
        # linear_theorem reads no potential, so its config names none
        potential = "" if exp == "linear_theorem" else "potential.id = truncated_quadratic\n"
        status = run(parse_config(DEFAULTS_CONFIG + potential + f"experiment.id = {exp}\n"), tmp_path)
        assert status in (0, 1), (tmp_path / "error.json").read_text()
        m = generate_unit_square_mesh(6)
        data = ProblemData.make(m, g=-1.0, q=0.5, b=1.0, alpha=2.0)
        rep = LIBRARY_CALLS[exp](m, data, make_potential("truncated_quadratic", b=1.0))
        assert (tmp_path / f"{exp}.csv").read_text() == rep.to_csv()
        assert (tmp_path / "verdicts.txt").read_text() == rep.summary()


class TestDescribePotential:
    def test_exp_quadratic_report(self):
        text, ok = describe_potential("exp_quadratic", b=1.0)
        assert "growth bound" in text and "pass" in text
        assert "sign condition j0(r; b-r) <= 0: pass" in text
        assert "scaled sign condition" in text and "fail" in text
        assert "relaxed monotonicity constant: 1\n" in text
        assert ok  # the scaled condition does not enter the verdict

    def test_abs_all_checks_pass(self):
        text, ok = describe_potential("abs", b=1.0)
        assert "fail" not in text and ok
        assert "relaxed monotonicity constant: 0\n" in text

    def test_concave_kink_reports_an_infinite_constant(self):
        text, _ = describe_potential("min_quadratics", b=1.0)
        assert "relaxed monotonicity constant: inf\n" in text

    @pytest.mark.parametrize(
        "pid, failed",
        [
            ("quintic_ramp", "growth bound: fail"),  # no linear growth constants
            ("tresca", "sign condition j0(r; b-r) <= 0: fail"),  # kink at 0, anchor at 1
        ],
    )
    def test_verdict_fails_with_the_growth_bound_or_the_sign_condition(self, pid, failed):
        text, ok = describe_potential(pid, b=1.0)
        assert failed in text and not ok

    def test_unknown_id_lists_builtins(self):
        with pytest.raises(Exception) as err:
            describe_potential("unknown")
        message = str(err.value)
        for pid in ("exp_quadratic", "min_quadratics", "quadratic", "truncated_quadratic", "abs"):
            assert pid in message
        assert "tresca" in message  # extras advertised too


class TestMain:
    def test_happy_path(self, tmp_path):
        config = tmp_path / "solve.cfg"
        config.write_text(MINIMAL)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "solution.csv").exists()

    @pytest.mark.parametrize(
        "pid, setting, stop",
        [
            ("exp_quadratic", "solver.max_iters = 0", "budget"),  # the start is not certified
            ("quadratic", "solver.tol_inclusion = 1e-300", "stalled"),  # below the rounding floor
        ],
    )
    def test_uncertified_solve_names_its_stop_on_stderr(self, tmp_path, capsys, pid, setting, stop):
        config = tmp_path / "solve.cfg"
        config.write_text(
            MINIMAL.replace("mesh.n = 8", "mesh.n = 8\nproblem.g = -1").replace("quadratic", pid)
            + setting + "\n"
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 1
        assert sorted(path.name for path in out.iterdir()) == ["certificate.csv", "solution.csv"]
        cert = dict(
            line.split(",", 1) for line in (out / "certificate.csv").read_text().splitlines()[1:]
        )
        first = capsys.readouterr().err.splitlines()[0]
        assert first == (
            f"solve not certified: {stop} after {cert['iterations']} iterations, "
            f"interior_residual_max {float(cert['interior_residual_max']):.3e}, "
            f"gamma3_inclusion_max {float(cert['gamma3_inclusion_max']):.3e}"
        )

    @pytest.mark.parametrize(
        "g", ["-" * 1000 + "1", "(" * 300 + "1" + ")" * 300, "0x10", "__import__('os')"]
    )
    def test_rejected_expression_exits_2_without_a_traceback(self, tmp_path, capsys, g):
        config = tmp_path / "solve.cfg"
        config.write_text(MINIMAL + f"problem.g = {g}\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
        payload = json.loads((out / "error.json").read_text())
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith("line 7: problem.g: ")
        assert "Traceback" not in capsys.readouterr().err

    def test_vi_solve_builds_one_potential(self, tmp_path, monkeypatch):
        built, grids = [], []
        make, grid = hviheat.potentials.make_potential, hviheat.potentials.default_grid
        monkeypatch.setattr(
            hviheat.cli, "make_potential", lambda *a, **k: built.append(a) or make(*a, **k)
        )
        monkeypatch.setattr(
            hviheat.potentials, "default_grid", lambda p: grids.append(p) or grid(p)
        )
        config = tmp_path / "solve.cfg"
        config.write_text(
            MINIMAL.replace("quadratic", "abs") + "problem.kind = vi\nproblem.g = -1\n"
        )
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert len(built) == 1 and len(grids) == 1

    def test_robin_lumped_is_the_quadratic_law(self, tmp_path):
        config = tmp_path / "solve.cfg"
        config.write_text(
            "command = solve\nmesh.n = 8\nproblem.kind = robin_lumped\n"
            "problem.g = -1.03 - 0.51*x*y\nproblem.q = 0.49\n"
            "problem.b = 1.04\nproblem.alpha = 19.7\n"
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
        rows = (out / "certificate.csv").read_text().splitlines()[1:]
        cert = dict(line.split(",", 1) for line in rows)
        assert cert["iterations"] == "0" and cert["converged"] == "true"
        assert float(cert["gamma3_inclusion_max"]) <= 1e-12
        m = generate_unit_square_mesh(8)
        g = lambda x, y: -1.03 - 0.51 * x * y  # noqa: E731
        data = ProblemData.make(m, g=g, q=0.49, b=1.04, alpha=19.7)
        u = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[:, 3]
        assert np.max(np.abs(u - robin_reference(m, data, "lumped"))) <= 1e-14

    def test_config_parse_error_exit_2(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text(MINIMAL.replace("problem.alpha = 10", "problem.alpha = -3"))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
        assert (out / "error.json").exists()

    def test_command_mismatch_exit_2(self, tmp_path):
        config = tmp_path / "solve.cfg"
        config.write_text(MINIMAL)
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2

    def test_missing_config_file_exit_2(self, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", str(tmp_path / "nope.cfg"), "--out", str(out)]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["nosuch", "--config", "x.cfg", "--out", "out"],
            ["solve", "--out", "out"],
            ["solve", "--config", "x.cfg"],
            [],
        ],
        ids=["unknown_command", "no_config", "no_out", "no_command"],
    )
    def test_argument_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: hviheat" in capsys.readouterr().err

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for command in ("solve", "experiment", "check-potential", "--config", "--out"):
            assert command in text

    def test_options_before_the_command(self, tmp_path):
        config = tmp_path / "solve.cfg"
        config.write_text(MINIMAL)
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "solve"]) == 0
        assert (out / "solution.csv").exists()

    def test_check_potential_writes_report(self, tmp_path):
        config = tmp_path / "p.cfg"
        config.write_text(
            "command = check-potential\npotential.id = exp_quadratic\npotential.b = 1\n"
        )
        out = tmp_path / "out"
        assert main(["check-potential", "--config", str(config), "--out", str(out)]) == 0
        assert "relaxed monotonicity" in (out / "potential.txt").read_text()

    def test_check_potential_exits_1_when_the_growth_bound_fails(self, tmp_path):
        config = tmp_path / "p.cfg"
        config.write_text("command = check-potential\npotential.id = quintic_ramp\n")
        out = tmp_path / "out"
        assert main(["check-potential", "--config", str(config), "--out", str(out)]) == 1
        assert "growth bound: fail" in (out / "potential.txt").read_text()

    def test_refinement_needs_no_mesh(self, tmp_path):
        # refinement builds its meshes from experiment.n_list; mesh.n is accepted and unused
        base = (
            "command = experiment\nexperiment.id = refinement\nexperiment.n_list = 2,4\n"
            "problem.g = -1\nproblem.q = 0.5\nproblem.b = 1\nproblem.alpha = 2\n"
        )
        outputs = []
        for name, extra in (("bare", ""), ("n1", "mesh.n = 1\n")):
            config = tmp_path / f"{name}.cfg"
            config.write_text(base + extra)
            out = tmp_path / name
            assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
            outputs.append((out / "refinement.csv").read_bytes())
        assert outputs[0] == outputs[1]
        # every other experiment still needs a mesh
        config = tmp_path / "comparison.cfg"
        config.write_text(base.replace("refinement\nexperiment.n_list = 2,4", "comparison")
                          + "potential.id = abs\n")
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "c")]) == 2
        assert "either mesh.n or mesh.file is required" in (tmp_path / "c" / "error.json").read_text()


def test_cli_sets_one_blas_thread_unless_a_variable_chooses_the_count(monkeypatch):
    module = sys.modules.get("numpy._core._multiarray_umath")
    lib = ctypes.CDLL(module.__file__) if module else None
    if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy's bundled OpenBLAS is not here")
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
    before = get()
    try:
        put(2)
        for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
            monkeypatch.setenv(variable, "2")
            _one_blas_thread()
            assert get() == 2
        monkeypatch.delenv("OMP_NUM_THREADS")
        _one_blas_thread()
        assert get() == 1
    finally:
        put(before)
