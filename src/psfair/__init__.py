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
    PredictionSet,
    align,
    emit,
    ingest,
)
from .metrics import (
    BootstrapConfig,
    FairnessSummary,
    SubgroupPerformance,
    macro_average,
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
    compare_study,
    decompose_disparity_change,
    gate,
    pareto_select,
)
from .synth import (
    CandidateSpec,
    GroupRecipe,
    ScenarioSpec,
    build_study,
    load_scenario,
    preset,
)

__version__ = "0.1.0"
