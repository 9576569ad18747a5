"""Rule registry: the analyzer's pluggable catalog of contract checks.

A *rule* is a function ``(module: ModuleInfo) -> Iterable[Finding]``
registered under a stable id (``DET001``, ``SCOPE002``, ...).  Ids are
API: pragmas and CI reports reference them, so a rule may be retired but
its id never reused for a different check.

Rule families (see ``DESIGN.md`` for the full catalog):

* ``DET`` — nondeterminism sources in deterministic modules;
* ``SCOPE`` — timing-scoped fields leaking into deterministic payloads;
* ``PAR`` — fork/pipe boundary safety of the shard-worker plane;
* ``MSG`` — CONGEST node algorithms bypassing the metered message plane;
* ``PRG`` — pragma hygiene (emitted by the pragma parser itself);
* ``SYN`` — files the analyzer cannot parse at all.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.analysis.findings import Finding
from repro.analysis.pragmas import PragmaSet


@dataclass
class ModuleInfo:
    """Everything a rule may look at for one source file."""

    #: Path as reported in findings (normalized, repo-relative when run
    #: from the repo root).
    path: str
    source: str
    tree: ast.Module
    pragmas: PragmaSet
    #: Whether DET rules apply here — ``True`` for ``repro/*`` modules
    #: outside the declared timing planes, or any file carrying the
    #: ``# repro: deterministic-module`` marker.
    deterministic: bool


@dataclass(frozen=True)
class Rule:
    id: str
    summary: str
    check: Callable[[ModuleInfo], Iterable[Finding]]
    #: Rules that only make sense where the determinism contract holds
    #: (the DET family); others run on every analyzed file.
    deterministic_only: bool = False

    @property
    def family(self) -> str:
        return "".join(c for c in self.id if c.isalpha())


#: The live registry, id -> Rule.  Populated by the ``rules_*`` modules
#: at import time.
RULES: dict[str, Rule] = {}

#: Diagnostics emitted outside the rule machinery (parser-level), listed
#: so ``--list-rules`` and pragma validation know every legal id.
BUILTIN_DIAGNOSTICS: dict[str, str] = {
    "PRG001": "malformed or reason-less '# repro: allow[...]' pragma",
    "SYN001": "file could not be parsed as Python",
}


def rule(
    rule_id: str, summary: str, *, deterministic_only: bool = False
) -> Callable:
    """Decorator registering a check function under ``rule_id``."""

    def deco(fn: Callable[[ModuleInfo], Iterable[Finding]]) -> Callable:
        if rule_id in RULES or rule_id in BUILTIN_DIAGNOSTICS:
            raise ValueError(f"rule id {rule_id!r} already registered")
        RULES[rule_id] = Rule(
            id=rule_id,
            summary=summary,
            check=fn,
            deterministic_only=deterministic_only,
        )
        return fn

    return deco


def all_rule_ids() -> tuple[str, ...]:
    """Every legal rule id, registry and parser diagnostics included."""
    return tuple(sorted({*RULES, *BUILTIN_DIAGNOSTICS}))


def run_rules(module: ModuleInfo) -> list[Finding]:
    """Run every applicable registered rule over one module."""
    findings: list[Finding] = []
    for rule_obj in RULES.values():
        if rule_obj.deterministic_only and not module.deterministic:
            continue
        findings.extend(rule_obj.check(module))
    return findings
