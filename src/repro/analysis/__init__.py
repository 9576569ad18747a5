"""Determinism-contract static analyzer.

An AST-based lint over this repository's own invariants: DET
(nondeterminism sources in deterministic modules), SCOPE (timing-scoped
fields leaking into deterministic payloads — the PR 6/8 bug class), PAR
(fork/pipe boundary safety) and MSG (metered CONGEST message plane).
Run it with ``python -m repro.analysis src`` or import
:func:`repro.analysis.engine.analyze_paths`.
"""

from repro.analysis.engine import (
    AnalysisResult,
    analyze_paths,
    analyze_source,
)
from repro.analysis.findings import Finding, Suppression
from repro.analysis.registry import RULES, all_rule_ids

__all__ = [
    "AnalysisResult",
    "Finding",
    "RULES",
    "Suppression",
    "all_rule_ids",
    "analyze_paths",
    "analyze_source",
]
