"""Desk-scale toolkit for quasiconvex analysis over exact polyhedra.

Submodules:

- ``geometry``: polytopes, generated cones, projections, faces.
- ``quasiconvex``: step level functions, adjusted sublevel sets, checks.
- ``normal_op``: normal cone operators, charts, atlases, the global base
  map, and the semicontinuity/monotonicity probes.
- ``gqvi``: generalized quasivariational inequalities and their solver.
- ``quasiopt``: quasioptimization via the normal-operator reduction.
- ``cli``: the ``adjcone`` batch front-end.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    GeneratedCone,
    Polytope,
    weighted_minkowski,
)
from .quasiconvex import (  # noqa: F401
    AnalyticFunction,
    SamplingPlan,
    StepLevelFunction,
    adjusted_convexity_check,
    analytic_from_name,
    quasiconvexity_check,
)
from .normal_op import (  # noqa: F401
    Atlas,
    BaseResult,
    LocalChart,
    adjusted_normal_cone,
    build_atlas,
    build_chart,
    closedness_probe,
    global_base,
    quasimonotonicity_probe,
    strict_normal_cone,
    usc_probe,
)
from .gqvi import (  # noqa: F401
    ConstantOperator,
    GqviInstance,
    MovingPolytope,
    SolverConfig,
    fixed_point_set,
    hypothesis_report,
    minimax_value,
)
from .gqvi import solve as solve_gqvi  # noqa: F401
from .quasiopt import (  # noqa: F401
    QuasioptInstance,
    TFromNormal,
    solve_quasiopt,
)
