"""Every name a psfair module exports resolves, every test module imports,
the package's public names are the listed ones, and ``import psfair`` loads
none of its submodules until one of their names is used.

The tier-1 command continues past collection errors, so a test module that
fails to import, say on a name removed from ``psfair``, would otherwise drop
out of the run with all its tests. Adding or removing a public name of
``psfair`` means editing ``PUBLIC_NAMES``, so the change shows in the diff.
"""

import importlib
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import psfair
from conftest import child_env

MODULES = ["psfair", *(f"psfair.{m.name}" for m in pkgutil.iter_modules(psfair.__path__))]
TEST_MODULES = sorted(path.stem for path in Path(__file__).parent.glob("test_*.py"))
PUBLIC_NAMES = (
    "AlignedStudy", "AlignmentError", "BootstrapConfig", "CandidateSpec", "ChangeNarrative",
    "Classification", "CohortError", "FairnessSummary", "GatePolicy", "GateVerdict",
    "GroupDelta", "GroupRecipe", "InclusionPolicy", "IngestError", "NarrativeKind",
    "PositiveSumComparison", "PredictionSet", "ScenarioSpec", "StudyAudit", "SubgroupPerformance",
    "align", "audit_study", "build_study", "classify", "compare", "compare_study",
    "decompose_disparity_change", "emit", "gate", "ingest", "load_scenario", "macro_average",
    "pareto_select", "preset", "summarize",
)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", TEST_MODULES)
def test_test_module_imports(name):
    importlib.import_module(name)


def test_public_names_are_listed():
    # dir() lists a lazy export whether or not anything has used it yet, so the
    # result does not depend on test order. Submodules are attributes of the
    # package once imported, but not names it defines.
    names = sorted(n for n in dir(psfair)
                   if not n.startswith("_") and not isinstance(getattr(psfair, n), types.ModuleType))
    assert tuple(names) == PUBLIC_NAMES


def test_import_loads_no_submodule_until_a_name_is_used():
    code = ("import sys, psfair\n"
            "assert [m for m in sys.modules if m.startswith(('psfair.', 'numpy'))] == []\n"
            "psfair.positive_sum.StudyComparison, psfair.summarize\n"
            "print(sorted(m for m in sys.modules if m.startswith('psfair.')))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == (
        "['psfair.cohort', 'psfair.metrics', 'psfair.positive_sum', 'psfair.seeding']")
