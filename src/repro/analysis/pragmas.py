"""Inline pragma suppressions and the module classification marker.

Grammar (inside any ``#`` comment)::

    # repro: allow[RULE]  reason text              one line (same or above)
    # repro: allow[RULE1,RULE2] -- reason text     several rules at once
    # repro: deterministic-module                  force DET classification

A suppression *must* carry a non-empty reason — the pragma is the audit
trail for why a contract exception is sound — and an empty reason is
itself a finding (``PRG001``), so silencing the analyzer always costs one
written sentence.  A pragma suppresses matching findings on its own line
and, when it stands on a comment-only line, on the next code line below
it.  Any other ``# repro: allow`` form (``allow-file[...]`` included) is a
``PRG001`` finding.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

from repro.analysis.findings import Finding

_PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow"
    r"\[(?P<rules>[^\]]*)\]\s*(?:--\s*)?(?P<reason>.*?)\s*$"
)
_MARKER_RE = re.compile(r"#\s*repro:\s*deterministic-module\b")


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# repro: allow[...]`` comment."""

    line: int
    rules: tuple[str, ...]
    reason: str
    #: Whether the pragma had the comment line to itself (then it also
    #: covers the next code line, like a decorator).
    own_line: bool = False


@dataclass
class PragmaSet:
    """All pragmas and the marker of one module, plus their own findings."""

    pragmas: list[Pragma] = field(default_factory=list)
    deterministic_marker: bool = False
    #: Malformed-pragma findings (``PRG001``) discovered while parsing.
    findings: list[Finding] = field(default_factory=list)

    def suppression_for(self, finding: Finding) -> str | None:
        """The reason of a pragma covering ``finding``, or ``None``.

        A pragma covers its own line and — when the comment stands
        alone — the next line (so it can sit above a long statement).
        """
        for pragma in self.pragmas:
            if finding.rule not in pragma.rules:
                continue
            if finding.line == pragma.line:
                return pragma.reason
            if pragma.own_line and finding.line > pragma.line:
                # Covers the next *code* line: anything on the lines
                # between is necessarily more comments, so a small
                # forward window is exact enough in practice — the
                # common shape is pragma directly above the statement.
                if finding.line - pragma.line <= 2:
                    return pragma.reason
        return None


def scan_pragmas(path: str, source: str) -> PragmaSet:
    """Parse every ``# repro:`` comment of ``source``.

    Tokenization errors are ignored here — the caller reports the module
    as unparseable through the AST pass, which gives a better message.
    """
    result = PragmaSet()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return result
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        comment = token.string
        line = token.start[0]
        if _MARKER_RE.search(comment):
            result.deterministic_marker = True
            continue
        match = _PRAGMA_RE.search(comment)
        if match is None:
            if re.search(r"#\s*repro:\s*allow", comment):
                result.findings.append(
                    Finding(
                        path=path,
                        line=line,
                        col=token.start[1],
                        rule="PRG001",
                        message=(
                            "malformed pragma: expected "
                            "'# repro: allow[RULE] reason'"
                        ),
                    )
                )
            continue
        rules = tuple(
            r.strip() for r in match.group("rules").split(",") if r.strip()
        )
        reason = match.group("reason").strip()
        if not rules or not reason:
            result.findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=token.start[1],
                    rule="PRG001",
                    message=(
                        "pragma must name at least one rule and state a "
                        "reason: '# repro: allow[RULE] reason'"
                    ),
                )
            )
            continue
        own_line = source.splitlines()[line - 1].lstrip().startswith("#")
        result.pragmas.append(
            Pragma(
                line=line,
                rules=rules,
                reason=reason,
                own_line=own_line,
            )
        )
    return result
