"""Positive-sum fairness auditing for scored classifiers.

Distinguishes harmful from non-harmful subgroup disparities by comparing
candidate models to a baseline on two axes: the overall AUROC change and the
AUROC change of the least-improved protected subgroup.
"""

from .cohort import (
    AlignedStudy,
    AlignmentError,
    CohortError,
    InclusionPolicy,
    IngestError,
    PredictionRecord,
    PredictionSet,
    align,
    emit,
    ingest,
)
from .metrics import (
    BootstrapConfig,
    FairnessSummary,
    SubgroupPerformance,
    auroc,
    group_performance,
    macro_average,
    overall_auroc,
    summarize,
)
from .positive_sum import (
    ChangeNarrative,
    Classification,
    GatePolicy,
    GateVerdict,
    GroupDelta,
    NarrativeKind,
    PositiveSumComparison,
    classify,
    compare,
    decompose_disparity_change,
    gate,
    pareto_select,
    plot_coordinates,
)
from .synth import (
    CandidateSpec,
    GroupRecipe,
    ScenarioSpec,
    build_study,
    gen_binormal,
    load_scenario,
    oracle_auroc,
    preset,
)

__version__ = "0.1.0"
