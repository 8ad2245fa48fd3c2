"""Finite-element solver and verification harness for mixed elliptic problems
with a multivalued subdifferential exchange law on part of the boundary."""

from .mesh import (
    BoundaryTag,
    Mesh,
    MeshFormatError,
    generate_unit_square_mesh,
    load_mesh,
    save_mesh,
    validate_mesh,
)
from .assembly import (
    DofMap,
    MeshOperators,
    ProblemData,
    assemble_boundary_mass,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_dof_map,
    gamma3_mass,
    mesh_operators,
    v0_seminorm,
    v_norm,
)
from .potentials import (
    Potential,
    check_growth,
    check_scaled_sign_condition,
    check_sign_condition,
    check_strict_condition,
    make_potential,
    potential_ids,
)
from .hvi_solver import (
    Certificate,
    Solution,
    SolveReport,
    SolverOptions,
    check_certificate,
    solve_dirichlet,
    solve_hvi,
    solve_robin,
    trace_constant,
)
from .verification import (
    ExperimentReport,
    PreconditionError,
    refinement_study,
    verify_alpha_convergence,
    verify_comparison,
    verify_continuous_dependence,
    verify_linear_theorem,
    verify_monotonicity,
)

__version__ = "0.1.0"
