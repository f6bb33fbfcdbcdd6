"""Guard on the public API: thresholds, seeds and retry counts are module
constants, and only the parameters listed here can be set by a caller."""

import dataclasses
import importlib
import inspect
import pkgutil
import re

import qrflab

TUNABLE = re.compile(r"tol|tolerance|.*_tol|seed|max_retries|ratio|times|out_space")

# Settable values that a caller outside the tests sets to something other
# than the default, or that carry such a value.
ALLOWED = {
    # scheme preparations are checked at 1e-9, every other state at 1e-10
    "opcore.check_density.tol",
    # the scenario task tolerance, and the --times of modular_flow_demo.py
    "modular.kms_check.tol",
    "modular.kms_check.times",
    # the report records the values kms_check ran with
    "modular.KmsReport.tolerance",
    "modular.KmsReport.times",
    # the scenario task tolerance
    "relativise.expected_relative_outcome.tol",
    # the --seed and --tolerance flags of the scenario runner
    "cli.build_context.seed",
    "cli.run_scenario.seed",
    "cli.run_scenario.tolerance",
}


def public_callables():
    """(module.name, object) for every public function, class and public
    method that a module of the package defines."""
    for info in pkgutil.iter_modules(qrflab.__path__):
        module = importlib.import_module(f"qrflab.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not attr.startswith("_"):
                        yield f"{info.name}.{name}.{attr}", member


def settable_names() -> set[str]:
    found = set()
    for qualname, obj in public_callables():
        if dataclasses.is_dataclass(obj):
            params = [f.name for f in dataclasses.fields(obj)]
        elif inspect.isclass(obj):
            continue
        else:
            params = list(inspect.signature(obj).parameters)
        found.update(f"{qualname}.{p}" for p in params if TUNABLE.fullmatch(p))
    return found


def test_only_allow_listed_parameters_are_settable():
    assert settable_names() == ALLOWED


def test_the_walk_reaches_functions_methods_and_dataclass_fields():
    names = dict(public_callables())
    assert {"opcore.unitary_defect", "vnalg.OperatorAlgebra.contains",
            "modular.ModularData.flow_defect", "crossed.CommutationReport"} <= set(names)
    assert qrflab.decompose is names["vnalg.decompose"]
