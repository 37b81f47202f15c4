"""Positive-sum fairness auditing for scored classifiers.

Distinguishes harmful from non-harmful subgroup disparities by comparing
candidate models to a baseline on two axes: the overall AUROC change and the
AUROC change of the least-improved protected subgroup.

Each public name is loaded from its submodule the first time it is used
(PEP 562), so ``import psfair`` loads neither a submodule nor numpy.
"""

import importlib

_EXPORTS = {
    "cohort": ("AlignedStudy", "AlignmentError", "CohortError", "InclusionPolicy",
               "IngestError", "PredictionSet", "align", "emit", "ingest"),
    "metrics": ("BootstrapConfig", "FairnessSummary", "StudyAudit", "SubgroupPerformance",
                "audit_study", "macro_average", "summarize"),
    "positive_sum": ("ChangeNarrative", "Classification", "GatePolicy", "GateVerdict",
                     "GroupDelta", "NarrativeKind", "PositiveSumComparison", "classify",
                     "compare", "compare_study", "decompose_disparity_change", "gate",
                     "pareto_select"),
    "synth": ("CandidateSpec", "GroupRecipe", "ScenarioSpec", "build_study", "load_scenario",
              "preset"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # psfair.metrics and the like, before anything imported them
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
