"""fairrepair: post-process classifier scores so thresholded decisions stay
fair across every choice of decision threshold.

The library fits per-group score distributions, transports them toward their
weighted barycenter (fully or partially), and selects how far to move each
group via convex solvers -- a single repair amount for two groups, a max-min
or lexicographically fair vector for more.
"""

from .dataset import (
    FNR,
    FPR,
    NR,
    PR,
    TNR,
    TPR,
    MetricCombo,
    MetricKind,
    ScoreDomain,
    ScoredDataset,
    load_csv,
    parse_combo,
    parse_metric,
    subset_by_label,
    validate_dataset,
    write_csv,
)
from .errors import DatasetError, FairRepairError, LPError, SolverError, SpecError
from .lex import LexProblem, LexSolution, build_problem, solve_lexicographic, solve_maxmin
from .metrics import (
    DisparityCurve,
    DisparityReport,
    ThresholdGrid,
    distributional_disparity,
    groupwise_lex_loss,
    probabilistic_parity_gap,
    rate_curve,
)
from .ot import EmpiricalDistribution, barycenter_quantile, wasserstein
from .repair import RepairPlan, fit_plan, load_plan, save_plan
from .solver import (
    LambdaObjective,
    LambdaSolution,
    objective_eval,
    solve_exact,
    solve_grid,
    solve_probabilistic,
)
from .synth import GENERATOR_ID, JointSpec, bundled_spec, sample, split

__version__ = "0.1.0"

__all__ = [
    "ScoreDomain",
    "ScoredDataset",
    "MetricKind",
    "MetricCombo",
    "PR",
    "TPR",
    "FPR",
    "NR",
    "TNR",
    "FNR",
    "validate_dataset",
    "subset_by_label",
    "parse_metric",
    "parse_combo",
    "load_csv",
    "write_csv",
    "EmpiricalDistribution",
    "wasserstein",
    "barycenter_quantile",
    "ThresholdGrid",
    "DisparityCurve",
    "DisparityReport",
    "rate_curve",
    "distributional_disparity",
    "probabilistic_parity_gap",
    "groupwise_lex_loss",
    "RepairPlan",
    "fit_plan",
    "save_plan",
    "load_plan",
    "LambdaObjective",
    "LambdaSolution",
    "objective_eval",
    "solve_grid",
    "solve_exact",
    "solve_probabilistic",
    "LexProblem",
    "LexSolution",
    "build_problem",
    "solve_maxmin",
    "solve_lexicographic",
    "JointSpec",
    "sample",
    "split",
    "bundled_spec",
    "GENERATOR_ID",
    "FairRepairError",
    "DatasetError",
    "SpecError",
    "SolverError",
    "LPError",
]
