"""Tests of the benchmark itself: seeding, tracer hygiene, and the output check.

Run with: python -m pytest bench -q
"""

from __future__ import annotations

import collections
import inspect
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hviheat  # noqa: E402
from hviheat import cli  # noqa: E402

import workloads  # noqa: E402
from checks import CheckFailed, check_op  # noqa: E402
from run import REF_NOMINAL_S, case_latencies, scaled, tail  # noqa: E402
from tracer import Tracer  # noqa: E402


def first_ops(workload: str, seed: int, rounds: int = 2):
    return list(itertools.chain.from_iterable(itertools.islice(workloads.ROUNDS[workload](seed), rounds)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    assert first_ops(workload, 7) == first_ops(workload, 7)
    assert first_ops(workload, 7) != first_ops(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_two_ops_of_a_run_share_an_input(workload):
    ops = first_ops(workload, 3, rounds=4)
    assert len({(op.settings, op.mesh) for op in ops}) == len(ops)
    generated = [op.mesh.n for op in ops if op.mesh.perm_seed is None and op.mesh.n > 1]
    assert len(generated) == len(set(generated))


def test_rounds_hold_one_op_per_stratum():
    for workload, strata in (
        ("solve_large", len(workloads.LARGE_KINDS)),
        ("experiments_n64", len(workloads.EXPERIMENT_SLOTS)),
        ("multivalued_grid", len(workloads.GRID_STRATA)),
    ):
        for ops in itertools.islice(workloads.ROUNDS[workload](5), 3):
            assert len({op.stratum for op in ops}) == len(ops) == strata


def test_grid_blocks_repeat_their_cases_on_new_meshes():
    block = workloads.BLOCK_ROUNDS["multivalued_grid"]
    ops = first_ops("multivalued_grid", 11, rounds=2 * block)
    first, second = ops[: len(ops) // 2], ops[len(ops) // 2 :]

    def cases(part):
        return sorted((op.stratum, op.settings) for op in part)

    assert len(set(cases(first))) == len(first) == block * len(workloads.GRID_STRATA)
    assert cases(first) == cases(second)
    assert not {op.mesh for op in first} & {op.mesh for op in second}
    for stratum in range(len(workloads.GRID_STRATA)):
        g, q, b, alpha = zip(*(workloads.grid_case(stratum, r) for r in range(block)))
        assert sorted(g) == sorted(workloads.GRID_G)
        assert len(set(zip(q, b))) == len(workloads.GRID_Q) * len(workloads.GRID_B)
        assert set(alpha) == set(workloads.GRID_ALPHA)
    alphas = collections.Counter(
        workloads.grid_case(s, r)[3] for s in range(len(workloads.GRID_STRATA)) for r in range(block)
    )
    assert max(alphas.values()) - min(alphas.values()) <= 1


def _hviheat_bindings():
    """Every module attribute and class-dict entry of the package, by identity."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name != "hviheat" and not name.startswith("hviheat."):
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("hviheat"):
                for key, member in vars(value).items():
                    found[(name, attr, key)] = member
    return found


def test_tracer_restores_every_binding():
    before = _hviheat_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert hviheat.assembly.validate_mesh is not before[("hviheat.assembly", "validate_mesh")]
        assert hviheat.cli.validate_mesh is not before[("hviheat.cli", "validate_mesh")]
        assert hviheat.mesh.validate_mesh is not before[("hviheat.mesh", "validate_mesh")]
    finally:
        tracer.remove()
    after = _hviheat_bindings()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


def test_tracer_records_nested_spans_and_self_time(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("command = solve\nmesh.n = 8\nproblem.kind = vi\nproblem.b = 1\n"
                      "problem.alpha = 10\npotential.id = abs\n")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.recording = True
        assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        tracer.recording = False
    finally:
        tracer.remove()
    totals = tracer.totals()
    assert totals["cli.main"][0] == 1 and totals["cli.parse"][0] == 1
    assert totals["hvi_solver.factor"][0] >= 1 and totals["potentials.subdiff"][0] >= 1
    assert tracer.counts["solves"] == 1 and tracer.counts["certified"] == 1
    spans = tracer.arrays()
    assert spans["parent"][0] == -1 and np.all(spans["parent"][1:] >= 0)
    root = spans["end"][0] - spans["start"][0]
    assert sum(seconds for _, seconds in totals.values()) == pytest.approx(root, rel=1e-9)


def _run_op(op, tmp_path):
    config = workloads.write_inputs(op, tmp_path / f"op{op.index}")
    out = config.parent / "out"
    status = cli.main([op.command, "--config", str(config), "--out", str(out)])
    return config, out, status


def _grid_op(kind: str, pid: str):
    for op in first_ops("multivalued_grid", 2, rounds=48):
        settings = dict(op.settings)
        if settings["problem.kind"] == kind and settings["potential.id"] == pid and settings["problem.g"] == "-1":
            return op
    raise AssertionError("no such grid op")


def _perturb_solution(out: Path, vertex: int, delta: float) -> None:
    path = out / "solution.csv"
    lines = path.read_text().splitlines()
    fields = lines[vertex + 1].split(",")
    fields[3] = repr(float(fields[3]) + delta)
    lines[vertex + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("kind, pid", [("vi", "quadratic"), ("hvi", "quadratic")])
def test_check_rejects_perturbed_solution(tmp_path, kind, pid):
    op = _grid_op(kind, pid)
    config, out, status = _run_op(op, tmp_path)
    assert check_op(op, config, out, status).ok
    free = int(np.nonzero(np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)[:, 1] > 0.4)[0][0])
    _perturb_solution(out, free, 1e-6)
    with pytest.raises(CheckFailed, match="reported converged"):
        check_op(op, config, out, status)


def test_check_rejects_perturbed_linear_solution(tmp_path):
    op = next(op for op in first_ops("solve_large", 1, rounds=1) if op.stratum == "robin")
    small = workloads.Op(op.index, op.command, op.stratum, op.settings, workloads.MeshSpec(8, 99))
    config, out, status = _run_op(small, tmp_path)
    assert check_op(small, config, out, status).ok
    _perturb_solution(out, 40, 1e-3)
    with pytest.raises(CheckFailed):
        check_op(small, config, out, status)


def test_check_rejects_experiment_rows_that_contradict_verdicts(tmp_path):
    op = next(op for op in first_ops("experiments_n64", 1, rounds=1) if op.stratum == "refinement")
    config, out, status = _run_op(op, tmp_path)
    assert check_op(op, config, out, status).ok
    csv = out / "refinement.csv"
    csv.write_text(csv.read_text().replace(",pass\n", ",fail\n", 1))
    with pytest.raises(CheckFailed, match="disagree"):
        check_op(op, config, out, status)


def test_same_ops_give_identical_digests(tmp_path):
    ops = first_ops("multivalued_grid", 4, rounds=1)
    digests = []
    for attempt in ("a", "b"):
        digests.append([check_op(op, *_run_op(op, tmp_path / attempt)).digest for op in ops])
    assert digests[0] == digests[1]


def test_tail_is_nearest_rank_p90():
    assert tail(list(range(1, 171))) == (153, 17)
    assert tail([5.0, 1.0, 4.0, 2.0, 3.0]) == (5.0, 0)
    assert tail(list(range(27, 0, -1))) == (25, 2)


def test_case_latency_is_the_median_over_blocks():
    records = [{"case": "a#0", "scaled_seconds": x} for x in (1.0, 9.0, 2.0)]
    records.append({"case": "b#1", "scaled_seconds": 5.0})
    assert case_latencies(records) == [2.0, 5.0]


def test_scaled_seconds_follow_the_reference():
    assert scaled(2.0, REF_NOMINAL_S, REF_NOMINAL_S) == pytest.approx(2.0)
    assert scaled(2.0, REF_NOMINAL_S, 3 * REF_NOMINAL_S) == pytest.approx(1.0)
