#!/usr/bin/env python
"""Import-direction lint for the package's layer contract.

The policy/backend split fixed the dependency direction between layers;
this lint keeps it fixed. Rules (module-level imports only — lazy
imports inside functions are the sanctioned escape hatch for the CLI
subcommands):

- ``repro.core`` (search machinery) must not import ``repro.detectors``,
  ``repro.bench`` or ``repro.cli`` — policies and backends know nothing
  about the detector classes configured on top of them.
- ``repro.detectors`` must not import ``repro.bench`` or ``repro.cli``
  — detectors are library code; experiments drive them, never the
  reverse.
- ``repro.fpga`` consumes only the trace contract: from the detectors
  layer it may import ``repro.detectors.base`` alone (for the
  ``DecodeStats``/``BatchEvent`` types), and never ``repro.bench`` /
  ``repro.cli``.
- ``repro.serve`` sits above detectors/obs but below the experiment
  layer: it must not import ``repro.bench`` or ``repro.cli`` (the
  capacity experiments in ``repro.bench.serving`` import *it*, never
  the reverse), and the lower layers (core/detectors/fpga) must not
  import ``repro.serve``.

Exit status: 0 = clean, 1 = violations (each printed as
``path:line: message``), 2 = usage error.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

#: layer name -> repro submodule prefixes it must never import at
#: module level. ``repro.fpga`` additionally gets a detectors allowlist.
FORBIDDEN = {
    "core": ("repro.detectors", "repro.serve", "repro.bench", "repro.cli"),
    "detectors": ("repro.serve", "repro.bench", "repro.cli"),
    "fpga": ("repro.serve", "repro.bench", "repro.cli"),
    "serve": ("repro.bench", "repro.cli"),
}

#: The only detectors module the fpga layer may import.
FPGA_DETECTORS_ALLOWED = "repro.detectors.base"


def module_layer(path: Path) -> str | None:
    """The layer a source file belongs to (None = unconstrained)."""
    rel = path.relative_to(PACKAGE_ROOT)
    if rel.parts[0] == "cli.py":
        return "cli"
    if len(rel.parts) > 1:
        return rel.parts[0]
    return None


def module_level_imports(tree: ast.Module):
    """Yield ``(lineno, imported_module)`` for top-level imports only.

    Imports nested in functions/methods are deliberately ignored: the
    CLI resolves heavy modules lazily, and that laziness is exactly what
    keeps the import graph acyclic.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import; package is repro-internal
                continue
            if node.module:
                yield node.lineno, node.module


def top_level_nodes(tree: ast.Module):
    """The module-level statements (no recursion into function bodies)."""
    for node in tree.body:
        yield node
        # Class bodies execute at import time, so imports there are
        # module-level for layering purposes.
        if isinstance(node, ast.ClassDef):
            yield from node.body


def check_file(path: Path) -> list[str]:
    layer = module_layer(path)
    if layer not in FORBIDDEN:
        return []
    forbidden = FORBIDDEN[layer]
    tree = ast.parse(path.read_text(), filename=str(path))
    violations = []
    for node in top_level_nodes(tree):
        if isinstance(node, ast.Import):
            imports = [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imports = [(node.lineno, node.module)]
        else:
            continue
        for lineno, module in imports:
            rel = path.relative_to(REPO_ROOT)
            for banned in forbidden:
                if module == banned or module.startswith(banned + "."):
                    violations.append(
                        f"{rel}:{lineno}: {layer} layer must not import "
                        f"{module} (forbidden: {banned})"
                    )
            if layer == "fpga" and (
                module == "repro.detectors"
                or module.startswith("repro.detectors.")
            ):
                if module != FPGA_DETECTORS_ALLOWED:
                    violations.append(
                        f"{rel}:{lineno}: fpga layer may import only "
                        f"{FPGA_DETECTORS_ALLOWED} from the detectors "
                        f"layer, not {module}"
                    )
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="lint the repro package's import-direction contract"
    )
    parser.parse_args(argv)
    if not PACKAGE_ROOT.is_dir():
        print(f"error: package root {PACKAGE_ROOT} not found", file=sys.stderr)
        return 2
    violations: list[str] = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        violations.extend(check_file(path))
    if violations:
        print(f"LAYERING: {len(violations)} violation(s)")
        for line in violations:
            print(f"  {line}")
        return 1
    checked = sum(
        1 for p in PACKAGE_ROOT.rglob("*.py") if module_layer(p) in FORBIDDEN
    )
    print(f"layering OK: {checked} constrained module(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
