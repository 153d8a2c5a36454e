#!/usr/bin/env python3
"""Public-API surface check (wired into the CI docs job).

Asserts that the documented surface and the exported surface agree:

1. every symbol listed in the ``repro`` / ``repro.api`` tables of
   ``docs/api.md`` is present in the corresponding package's ``__all__``
   (the docs cannot promise names the package does not export);
2. every name in ``repro.__all__`` and ``repro.api.__all__`` actually
   resolves via ``getattr`` (no stale exports);
3. every registered transfer backend instantiates, self-reports the name it
   is registered under, and every design point resolves to a registered
   default backend;
4. every registered scenario is well-formed: unique results filename, at
   least one spec, every spec is a picklable ``ExperimentSpec`` (the process
   pool ships specs to worker processes), and its renderer accepts the
   registered entry.

Stdlib only.  Exits non-zero with a list of violations.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List, Set

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

API_DOC = REPO_ROOT / "docs" / "api.md"

#: docs/api.md section heading -> module whose __all__ must cover it.
SECTIONS = {
    "## `repro.api`": "repro.api",
    "## `repro`": "repro",
}

_HEADING_RE = re.compile(r"^## ")
_BACKTICK_RE = re.compile(r"`([^`]+)`")


def documented_symbols(text: str, heading: str) -> Set[str]:
    """Backticked symbol names from the first column of one section's table."""
    symbols: Set[str] = set()
    in_section = False
    for line in text.splitlines():
        if line.startswith(heading + " "):
            in_section = True
            continue
        if in_section and _HEADING_RE.match(line):
            break
        if not in_section or not line.startswith("| `"):
            continue
        first_cell = line.split("|")[1]
        for token in _BACKTICK_RE.findall(first_cell):
            name = token.split("(")[0].strip()
            if name.isidentifier():
                symbols.add(name)
    return symbols


def check_section(text: str, heading: str, module_name: str) -> List[str]:
    module = __import__(module_name, fromlist=["__all__"])
    exported = set(getattr(module, "__all__", ()))
    errors: List[str] = []
    documented = documented_symbols(text, heading)
    if not documented:
        errors.append(f"{API_DOC.name}: no documented symbols found under {heading!r}")
    for name in sorted(documented - exported):
        errors.append(
            f"{module_name}.__all__ is missing documented symbol {name!r} "
            f"(documented under {heading!r} in docs/api.md)"
        )
    for name in sorted(exported):
        if not hasattr(module, name):
            errors.append(f"{module_name}.__all__ exports unresolvable name {name!r}")
    return errors


def check_backends() -> List[str]:
    from repro.api.backends import (
        available_backends,
        create_backend,
        default_backend_name,
    )
    from repro.sim.config import DesignPoint

    errors: List[str] = []
    names = available_backends()
    if not names:
        errors.append("no transfer backends are registered")
    for name in names:
        try:
            backend = create_backend(name)
        except Exception as error:  # noqa: BLE001 - report, don't crash
            errors.append(f"backend {name!r} failed to instantiate: {error!r}")
            continue
        if backend.name != name:
            errors.append(
                f"backend registered as {name!r} reports name {backend.name!r}"
            )
        if not getattr(backend, "description", ""):
            errors.append(f"backend {name!r} has no description")
    for point in DesignPoint:
        default = default_backend_name(point)
        if default not in names:
            errors.append(
                f"design point {point.label} defaults to unregistered "
                f"backend {default!r}"
            )
    return errors


def check_scenarios() -> List[str]:
    import pickle

    from repro.exp.spec import ExperimentSpec
    from repro.scenarios.registry import SCENARIOS

    errors: List[str] = []
    filenames: dict = {}
    for name, scenario in SCENARIOS.items():
        if scenario.name != name:
            errors.append(
                f"scenario registered as {name!r} reports name {scenario.name!r}"
            )
        owner = filenames.setdefault(scenario.filename, name)
        if owner != name:
            errors.append(
                f"scenarios {owner!r} and {name!r} both write {scenario.filename!r}"
            )
        if not scenario.description:
            errors.append(f"scenario {name!r} has no description")
        if not scenario.family:
            errors.append(f"scenario {name!r} has an empty family")
        for spec in scenario.specs:
            if not isinstance(spec, ExperimentSpec):
                errors.append(
                    f"scenario {name!r} carries a non-ExperimentSpec "
                    f"{type(spec).__name__}"
                )
                continue
            try:
                pickle.loads(pickle.dumps(spec))
            except Exception as error:  # noqa: BLE001 - report, don't crash
                errors.append(f"scenario {name!r} spec does not pickle: {error!r}")
    return errors


def main() -> int:
    text = API_DOC.read_text()
    errors: List[str] = []
    for heading, module_name in SECTIONS.items():
        errors.extend(check_section(text, heading, module_name))
    errors.extend(check_backends())
    errors.extend(check_scenarios())
    if errors:
        print(f"public-API surface check failed ({len(errors)} problem(s)):")
        for error in errors:
            print(f"  - {error}")
        return 1
    print("public-API surface check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
