"""The analyzer engine: file discovery, classification, rule dispatch.

Classification decides which modules the DET family applies to: a module
is *deterministic* when it lives under ``repro/`` and outside the
declared timing planes (``repro/trace`` — wall-clock is that plane's
entire job).  Tests and benchmarks are non-deterministic by default; a
file opts in with the ``# repro: deterministic-module`` marker, as the
analyzer's synthetic fixtures do.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

# Import the rule modules for their registration side effects.
from repro.analysis import rules_det  # noqa: F401
from repro.analysis import rules_msg  # noqa: F401
from repro.analysis import rules_par  # noqa: F401
from repro.analysis import rules_scope  # noqa: F401
from repro.analysis.findings import Finding, Suppression
from repro.analysis.pragmas import scan_pragmas
from repro.analysis.registry import ModuleInfo, run_rules

#: ``repro/``-relative prefixes whose whole job is wall-clock/timing
#: observation; DET rules are off there by default.
TIMING_PLANE_PREFIXES: tuple[str, ...] = ("repro/trace",)

ANALYSIS_SCHEMA = "repro.analysis-report/2"


def module_relpath(path: Path) -> str:
    """Posix path used for classification, anchored at ``repro/``.

    ``src/repro/mpc/runtime.py`` -> ``repro/mpc/runtime.py``;
    paths without a ``repro`` component are returned as given.
    """
    parts = path.as_posix().split("/")
    if "repro" in parts:
        index = parts.index("repro")
        return "/".join(parts[index:])
    return path.as_posix()


def classify_deterministic(relpath: str, marked: bool) -> bool:
    if marked:
        return True
    if not relpath.startswith("repro/"):
        return False
    return not any(
        relpath == prefix or relpath.startswith(prefix + "/")
        for prefix in TIMING_PLANE_PREFIXES
    )


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced; ``to_json`` is the report."""

    files: list[str] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": ANALYSIS_SCHEMA,
            "findings": [f.to_json() for f in self.findings],
            "suppressions": [s.to_json() for s in self.suppressions],
            "counts": {
                "files": len(self.files),
                "findings": len(self.findings),
                "suppressed": len(self.suppressions),
            },
        }


def analyze_source(path: str, source: str) -> AnalysisResult:
    """Analyze one module's source text."""
    result = AnalysisResult(files=[path])
    pragmas = scan_pragmas(path, source)
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        result.findings.append(
            Finding(
                path=path,
                line=line,
                col=0,
                rule="SYN001",
                message=f"file could not be parsed: {exc.msg}"
                if isinstance(exc, SyntaxError)
                else f"file could not be parsed: {exc}",
            )
        )
        return result

    relpath = module_relpath(Path(path))
    module = ModuleInfo(
        path=path,
        source=source,
        tree=tree,
        pragmas=pragmas,
        deterministic=classify_deterministic(
            relpath, pragmas.deterministic_marker
        ),
    )
    raw = run_rules(module) + list(pragmas.findings)
    for finding in sorted(raw):
        reason = pragmas.suppression_for(finding)
        if reason is not None and finding.rule != "PRG001":
            result.suppressions.append(Suppression(finding, reason))
        else:
            result.findings.append(finding)
    return result


def collect_files(targets: list[str]) -> list[Path]:
    """Expand file/dir targets to a sorted list of ``.py`` files.

    Raises ``FileNotFoundError`` for a target that does not exist — bad
    arguments must exit 2, not silently analyze nothing.
    """
    files: set[Path] = set()
    for target in targets:
        path = Path(target)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.is_file():
            files.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {target}")
    return sorted(files)


def analyze_paths(targets: list[str]) -> AnalysisResult:
    """Analyze every ``.py`` file under ``targets``."""
    result = AnalysisResult()
    for path in collect_files(targets):
        source = path.read_text(encoding="utf-8")
        one = analyze_source(path.as_posix(), source)
        result.files.extend(one.files)
        result.findings.extend(one.findings)
        result.suppressions.extend(one.suppressions)
    result.findings.sort()
    return result
