"""Seeded operation lists for the three benchmark workloads.

An operation (``Op``) is one in-process call of the ``hviheat`` command-line
entry point: a config file, an optional mesh file and an output directory.
Operations come in rounds.  A round holds one op of every stratum of its
workload (a problem kind, an experiment slot, or a potential/kind pair of the
robustness matrix).  A block (``BLOCK_ROUNDS`` rounds) holds every case of a
workload once, and a run does whole blocks, at least three, so it measures
each case three or more times and always the same mix.

Everything an op reads follows from the benchmark seed (on
``multivalued_grid`` the seed sets only the op order), and no two ops of a
run share an input: every mesh file carries its own seeded vertex
renumbering, generated meshes never repeat a size, and on ``solve_large`` and
``experiments_n64`` every op draws its own data.  A case is what fixes an
op's cost: its stratum, and on ``multivalued_grid`` also its data setting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("solve_large", "experiments_n64", "multivalued_grid")
BLOCK_ROUNDS = {"solve_large": 1, "experiments_n64": 1, "multivalued_grid": 4}

# Kinds of ``hviheat solve`` on the large mesh, with the potential each needs.
# n=160 has 25,760 V0 unknowns, above the 20,000 where the solver turns to CG.
LARGE_N = 160
LARGE_KINDS = (
    ("dirichlet", None),
    ("robin", None),
    ("robin_lumped", None),
    ("hvi", "exp_quadratic"),
    ("vi", "abs"),
)
LARGE_GENERATED = ("dirichlet", "robin_lumped", "hvi")  # the other kinds read a mesh file

# Experiment slots: (experiment id, potential or None).  comparison,
# alpha_convergence and continuous_dependence run once with a convex and once
# with a nonconvex law.  An odd slot count keeps the median op inside one
# slot's cluster of latencies instead of in the gap between two.
EXPERIMENT_N = 64
EXPERIMENT_SLOTS = (
    ("linear_theorem", None),
    ("comparison", "abs"),
    ("comparison", "exp_quadratic"),
    ("monotonicity", "truncated_quadratic"),
    ("alpha_convergence", "quadratic"),
    ("alpha_convergence", "exp_quadratic"),
    ("continuous_dependence", "quadratic"),
    ("continuous_dependence", "exp_quadratic"),
    ("refinement", None),
)

# The robustness matrix: 8 potentials x 48 data settings on an n=16 mesh.
# g takes both signs, so data violating the sign conditions are included.
# A block covers 4 cases of each stratum, one for each level of g and each
# (q, b) pair, with alpha rotating over the strata; later blocks repeat those
# cases on freshly renumbered meshes, so a faster program that fits more
# blocks into a run still measures the same mix.
GRID_N = 16
GRID_MAX_ITERS = 300
GRID_POTENTIALS = (
    "exp_quadratic",
    "min_quadratics",
    "quadratic",
    "truncated_quadratic",
    "abs",
    "tresca",
    "quintic_ramp",
    "power_ramp",
)
GRID_NONCONVEX = ("exp_quadratic", "min_quadratics")
GRID_G = (-4.0, -1.0, 1.0, 4.0)
GRID_Q = (0.0, 1.0)
GRID_B = (0.5, 1.5)
GRID_ALPHA = (1.0, 10.0, 100.0)
GRID_STRATA = tuple(("hvi", pid) for pid in GRID_POTENTIALS) + tuple(
    ("vi", pid) for pid in GRID_POTENTIALS if pid not in GRID_NONCONVEX
)


@dataclass(frozen=True)
class MeshSpec:
    """A square mesh with ``n`` cells a side, renumbered by ``perm_seed`` if set.

    ``perm_seed is None`` means the op asks the program to generate the
    mesh (``mesh.n``); otherwise the benchmark writes a mesh file.
    """

    n: int
    perm_seed: int | None = None

    def build(self):
        from hviheat.mesh import generate_unit_square_mesh

        if self.perm_seed is None:
            return generate_unit_square_mesh(self.n)
        return renumbered_mesh(self.n, self.perm_seed)


@dataclass(frozen=True)
class Op:
    index: int
    command: str  # "solve" | "experiment"
    stratum: str
    settings: tuple[tuple[str, str], ...]  # config keys other than the mesh
    mesh: MeshSpec

    def config_text(self, mesh_path: Path | None) -> str:
        lines = [f"command = {self.command}"]
        if self.mesh.perm_seed is None:
            lines.append(f"mesh.n = {self.mesh.n}")
        else:
            lines.append(f"mesh.file = {mesh_path}")
        lines.extend(f"{key} = {value}" for key, value in self.settings)
        lines.append("experiment.workers = 1")
        return "\n".join(lines) + "\n"


def _num(x: float) -> str:
    return f"{x:.6f}"


def _sizes(center: int):
    """Mesh sizes for generated meshes: center, center+1, center-1, ..."""
    yield center
    step = 1
    while True:
        yield center + step
        yield center - step
        step += 1


def _signed_data(rng: np.random.Generator) -> tuple[tuple[str, str], ...]:
    """Data inside the sign conditions: g <= 0, q >= 0, b > 0.

    Each value is jittered by up to 10% around a nominal one: every op gets
    its own data, but its cost depends on its kind, not on its draw.
    """
    return (
        ("problem.g", f"-{_jitter(rng, 1.0)} - {_jitter(rng, 0.5)}*x*y"),
        ("problem.q", _jitter(rng, 0.5)),
        ("problem.b", _jitter(rng, 1.0)),
    )


def _jitter(rng: np.random.Generator, nominal: float) -> str:
    return _num(nominal * rng.uniform(0.9, 1.1))


def _perm_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**62))


def solve_large_rounds(seed: int):
    sizes = _sizes(LARGE_N)
    index = 0
    for r in itertools.count():
        rng = np.random.default_rng([seed, 0, r])
        # sizes go to kinds, not to places in the seeded order, so a seed
        # does not change which kind solves the larger meshes
        round_sizes = dict(zip(LARGE_GENERATED, sizes))
        ops = []
        for k in rng.permutation(len(LARGE_KINDS)):
            kind, pid = LARGE_KINDS[k]
            generated = kind in LARGE_GENERATED
            settings = [("problem.kind", kind), *_signed_data(rng)]
            if kind != "dirichlet":
                settings.append(("problem.alpha", _jitter(rng, 20.0)))
            if pid is not None:
                settings.append(("potential.id", pid))
            mesh = MeshSpec(round_sizes[kind]) if generated else MeshSpec(LARGE_N, _perm_seed(rng))
            ops.append(Op(index, "solve", kind, tuple(settings), mesh))
            index += 1
        yield ops


def experiments_n64_rounds(seed: int):
    tops = _sizes(EXPERIMENT_N)
    index = 0
    for r in itertools.count():
        rng = np.random.default_rng([seed, 1, r])
        ops = []
        for k in rng.permutation(len(EXPERIMENT_SLOTS)):
            exp, pid = EXPERIMENT_SLOTS[k]
            settings = [("experiment.id", exp), *_signed_data(rng)]
            if exp in ("continuous_dependence", "linear_theorem", "refinement"):
                settings.append(("problem.alpha", _jitter(rng, 2.0)))
            if pid is not None:
                settings.append(("potential.id", pid))
            if exp == "refinement":
                # refinement builds its own meshes from experiment.n_list; the
                # CLI still wants a mesh, and n=1 costs nothing
                top = next(tops)
                settings += [("problem.kind", "robin"), ("experiment.n_list", f"{top - 48},{top - 32},{top}")]
                mesh = MeshSpec(1)
            else:
                mesh = MeshSpec(EXPERIMENT_N, _perm_seed(rng))
            stratum = exp if pid is None else f"{exp}/{pid}"
            ops.append(Op(index, "experiment", stratum, tuple(settings), mesh))
            index += 1
        yield ops


def grid_case(stratum: int, r: int) -> tuple[float, float, float, float]:
    """The case of round ``r`` for a stratum: a fixed order, not a seeded one.

    Round ``r`` of a block takes the r-th level of g; q and b run through
    their four pairs, and alpha rotates with the stratum.  A fixed order
    makes every run measure the same cases; the seed varies the mesh
    numbering and the op order.
    """
    r %= BLOCK_ROUNDS["multivalued_grid"]
    q = GRID_Q[(r + stratum) % 2]
    b = GRID_B[(r // 2 + stratum // 2) % 2]
    return GRID_G[r], q, b, GRID_ALPHA[(r + stratum) % 3]


def multivalued_grid_rounds(seed: int):
    rng = np.random.default_rng([seed, 2])
    index = 0
    for r in itertools.count():
        ops = []
        for s in rng.permutation(len(GRID_STRATA)):
            kind, pid = GRID_STRATA[s]
            g, q, b, alpha = grid_case(s, r)
            settings = (
                ("problem.kind", kind),
                ("problem.g", f"{g:g}"),
                ("problem.q", f"{q:g}"),
                ("problem.b", f"{b:g}"),
                ("problem.alpha", f"{alpha:g}"),
                ("potential.id", pid),
                ("solver.max_iters", str(GRID_MAX_ITERS)),
            )
            # The numbering follows the round and stratum, not the seed: some
            # uncertified cases stop after 0.1 s or use their whole budget
            # (0.7 s) depending on vertex order alone.
            mesh = MeshSpec(GRID_N, _perm_seed(np.random.default_rng([GRID_N, r, s])))
            ops.append(Op(index, "solve", f"{kind}/{pid}", settings, mesh))
            index += 1
        yield ops


ROUNDS = {
    "solve_large": solve_large_rounds,
    "experiments_n64": experiments_n64_rounds,
    "multivalued_grid": multivalued_grid_rounds,
}


RENUMBER_WINDOW = 32


def renumbered_mesh(n: int, perm_seed: int):
    """The n x n unit-square mesh with its vertices renumbered by the seed.

    Ids are shuffled within windows of ``RENUMBER_WINDOW`` consecutive ids,
    which keeps the locality a mesh generator gives.
    """
    from hviheat.mesh import Mesh, generate_unit_square_mesh

    base = generate_unit_square_mesh(n)
    rng = np.random.default_rng(perm_seed)
    perm = np.arange(base.num_vertices)
    for start in range(0, len(perm), RENUMBER_WINDOW):
        rng.shuffle(perm[start : start + RENUMBER_WINDOW])
    vertices = np.empty_like(base.vertices)
    vertices[perm] = base.vertices
    return Mesh(
        vertices=vertices,
        triangles=perm[base.triangles],
        boundary_edges=perm[base.boundary_edges],
        boundary_tags=base.boundary_tags,
    )


def write_inputs(op: Op, op_dir: Path) -> Path:
    """Write the op's config (and mesh file) into ``op_dir``; returns the config path."""
    from hviheat.mesh import save_mesh

    op_dir.mkdir(parents=True, exist_ok=True)
    mesh_path = None
    if op.mesh.perm_seed is not None:
        mesh_path = (op_dir / "square.mesh").resolve()
        mesh_path.write_text(save_mesh(op.mesh.build()), encoding="utf-8")
    config = op_dir / "run.cfg"
    config.write_text(op.config_text(mesh_path), encoding="utf-8")
    return config
