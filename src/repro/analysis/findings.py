"""Finding objects: what a rule reports and how it serializes.

A :class:`Finding` is one violation of the determinism contract at one
source location.  Findings are value objects — hashable, ordered by
location — and :meth:`Finding.render` is their one text form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, order=True)
class Finding:
    """One determinism-contract violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    #: Enclosing function/class, when the rule can attribute one.
    symbol: str | None = field(default=None, compare=False)

    @property
    def family(self) -> str:
        """The rule family prefix (``DET``, ``SCOPE``, ``PAR``, ...)."""
        return "".join(c for c in self.rule if c.isalpha())

    def to_json(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "family": self.family,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line text form: ``path:line:col: RULE message``."""
        where = f"{self.path}:{self.line}:{self.col}"
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {self.rule} {self.message}{sym}"


@dataclass(frozen=True)
class Suppression:
    """A finding that a pragma silenced, with the pragma's stated reason."""

    finding: Finding
    reason: str

    def to_json(self) -> dict[str, Any]:
        data = self.finding.to_json()
        data["suppressed"] = True
        data["reason"] = self.reason
        return data
