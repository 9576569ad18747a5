"""SCOPE rules: timing-scoped fields must not enter deterministic payloads.

The field list is :data:`repro.contract.TIMING_SCOPED_FIELDS` — the same
list ``validate_metrics`` and ``validate_trace`` enforce at runtime.
Targets are *payload builders*: any function with an ``include_timing``
parameter, or named ``to_json`` / ``deterministic_payload`` /
``deterministic_json``.  Within a builder every statement is classified
as guarded (only reachable when ``include_timing`` is truthy) or
deterministic, by tracking ``if include_timing:`` / ``if not
include_timing:`` branches.

* ``SCOPE001`` — a timing-scoped *key* written in a deterministic
  section (``data["elapsed_s"] = ...`` outside the guard);
* ``SCOPE002`` — a timing-scoped *value* flowing under a neutral key in
  a deterministic section (``data["meta"] = self.elapsed_s``);
* ``SCOPE003`` — an opaque payload passed through to the deterministic
  section with no evidence of timing-key sanitization.  This is the
  exact PR 8 bug class: worker-count-dependent ``faults`` reports rode a
  task payload into the sweep digest, and nothing at the ``to_json``
  seam stripped them.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.astutil import names_in, string_constants_in
from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleInfo, rule
from repro.contract import TIMING_SCOPED_FIELD_SET

_BUILDER_NAMES = frozenset(
    {"to_json", "deterministic_payload", "deterministic_json"}
)
_GUARD_PARAM = "include_timing"


def _finding(
    module: ModuleInfo,
    node: ast.AST,
    rule_id: str,
    message: str,
    symbol: str,
) -> Finding:
    return Finding(
        path=module.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule=rule_id,
        message=message,
        symbol=symbol,
    )


def _is_builder(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    if fn.name in _BUILDER_NAMES:
        return True
    args = fn.args
    all_args = (
        args.posonlyargs + args.args + args.kwonlyargs
    )
    return any(a.arg == _GUARD_PARAM for a in all_args)


def _iter_builders(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]]:
    def visit(node: ast.AST, stack: tuple[str, ...]) -> Iterator:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbol = ".".join(stack + (node.name,))
            if _is_builder(node):
                yield node, symbol
            stack = stack + (node.name,)
        elif isinstance(node, ast.ClassDef):
            stack = stack + (node.name,)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, stack)

    yield from visit(tree, ())


def _guard_polarity(test: ast.expr) -> bool | None:
    """How an ``if`` test relates to ``include_timing``.

    ``True``  — body only runs when timing output is requested;
    ``False`` — body is the deterministic branch (``not include_timing``);
    ``None``  — the guard does not mention ``include_timing`` at all.
    """
    if _GUARD_PARAM not in names_in(test):
        return None
    for node in ast.walk(test):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            if _GUARD_PARAM in names_in(node.operand):
                return False
    return True


class _KeyWrite:
    """One ``key: value`` landing in a payload-ish container."""

    def __init__(self, node: ast.AST, key: str, value: ast.expr) -> None:
        self.node = node
        self.key = key
        self.value = value


def _key_writes(node: ast.AST) -> Iterator[_KeyWrite]:
    """Key/value pairs written by one statement-level node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Dict):
            for key, value in zip(sub.keys, sub.values):
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    yield _KeyWrite(key, key.value, value)
        elif isinstance(sub, ast.Assign):
            for target in sub.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    yield _KeyWrite(target, target.slice.value, sub.value)
        elif isinstance(sub, ast.Call):
            for keyword in sub.keywords:
                if keyword.arg is not None and isinstance(
                    sub.func, ast.Name
                ) and sub.func.id == "dict":
                    yield _KeyWrite(keyword, keyword.arg, keyword.value)
            if (
                isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "setdefault"
                and len(sub.args) >= 1
                and isinstance(sub.args[0], ast.Constant)
                and isinstance(sub.args[0].value, str)
            ):
                value = (
                    sub.args[1] if len(sub.args) > 1 else ast.Constant(None)
                )
                yield _KeyWrite(sub, sub.args[0].value, value)


def _timing_names_in_value(value: ast.expr) -> set[str]:
    """Timing-scoped identifiers referenced by a value expression."""
    found: set[str] = set()
    for node in ast.walk(value):
        if isinstance(node, ast.Attribute):
            if node.attr in TIMING_SCOPED_FIELD_SET:
                found.add(node.attr)
        elif isinstance(node, ast.Name):
            if node.id in TIMING_SCOPED_FIELD_SET:
                found.add(node.id)
    return found


#: The contract's own names for the whole timing-scoped field list.
_FIELD_LIST_NAMES = frozenset({"TIMING_SCOPED_FIELDS", "TIMING_SCOPED_FIELD_SET"})


def _has_sanitizer(fn: ast.AST) -> bool:
    """Whether ``fn`` contains a deterministic-branch timing-key strip.

    The recognized shape is an ``if`` whose test mentions
    ``not include_timing`` and whose test-or-body references at least one
    timing-scoped field name as a string constant, or the contract's
    whole field list by name — e.g.::

        if not include_timing and payload is not None and "faults" in payload:
            payload = {k: v for k, v in payload.items() if k != "faults"}
    """
    for node in ast.walk(fn):
        if not isinstance(node, ast.If):
            continue
        if _guard_polarity(node.test) is not False:
            continue
        mentioned = string_constants_in(node.test)
        names = names_in(node.test)
        for stmt in node.body:
            mentioned |= string_constants_in(stmt)
            names |= names_in(stmt)
        if mentioned & TIMING_SCOPED_FIELD_SET or names & _FIELD_LIST_NAMES:
            return True
    return False


_COMPOUND_STMTS = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.With,
    ast.AsyncWith,
    ast.Try,
)


def _walk_builder(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[tuple[ast.stmt, bool]]:
    """Yield each leaf statement with its include_timing-guarded flag.

    Compound statements are descended into (so a write inside a loop
    under ``if include_timing:`` is correctly guarded) and never yielded
    whole — only leaf statements carry key writes to examine.  Nested
    function/class definitions are skipped; they are analyzed as their
    own builders if they qualify.
    """

    def visit(body: list[ast.stmt], guarded: bool) -> Iterator:
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, ast.If):
                polarity = _guard_polarity(stmt.test)
                if polarity is True:
                    yield from visit(stmt.body, True)
                    yield from visit(stmt.orelse, guarded)
                elif polarity is False:
                    yield from visit(stmt.body, guarded)
                    yield from visit(stmt.orelse, True)
                else:
                    yield from visit(stmt.body, guarded)
                    yield from visit(stmt.orelse, guarded)
                continue
            if isinstance(stmt, _COMPOUND_STMTS):
                yield from visit(getattr(stmt, "body", []) or [], guarded)
                yield from visit(getattr(stmt, "orelse", []) or [], guarded)
                for handler in getattr(stmt, "handlers", []) or []:
                    yield from visit(handler.body, guarded)
                yield from visit(
                    getattr(stmt, "finalbody", []) or [], guarded
                )
                continue
            yield stmt, guarded

    yield from visit(fn.body, False)


@rule(
    "SCOPE001",
    "timing-scoped key written in a deterministic payload section",
)
def check_timing_key(module: ModuleInfo) -> Iterator[Finding]:
    for fn, symbol in _iter_builders(module.tree):
        for stmt, guarded in _walk_builder(fn):
            if guarded:
                continue
            for write in _key_writes(stmt):
                if write.key in TIMING_SCOPED_FIELD_SET:
                    yield _finding(
                        module,
                        write.node,
                        "SCOPE001",
                        f"timing-scoped key '{write.key}' written outside "
                        "the include_timing guard of a payload builder",
                        symbol,
                    )


@rule(
    "SCOPE002",
    "timing-scoped value flowing into a deterministic payload section",
)
def check_timing_value(module: ModuleInfo) -> Iterator[Finding]:
    for fn, symbol in _iter_builders(module.tree):
        for stmt, guarded in _walk_builder(fn):
            if guarded:
                continue
            for write in _key_writes(stmt):
                if write.key in TIMING_SCOPED_FIELD_SET:
                    continue  # SCOPE001's finding; don't double-report
                for name in sorted(_timing_names_in_value(write.value)):
                    yield _finding(
                        module,
                        write.node,
                        "SCOPE002",
                        f"timing-scoped value '{name}' flows under key "
                        f"'{write.key}' outside the include_timing guard",
                        symbol,
                    )


@rule(
    "SCOPE003",
    "opaque payload passthrough without timing-key sanitization",
)
def check_unsanitized_passthrough(module: ModuleInfo) -> Iterator[Finding]:
    for fn, symbol in _iter_builders(module.tree):
        args = fn.args
        all_args = args.posonlyargs + args.args + args.kwonlyargs
        if not any(a.arg == _GUARD_PARAM for a in all_args):
            continue
        sanitized = _has_sanitizer(fn)
        for stmt, guarded in _walk_builder(fn):
            if guarded:
                continue
            for write in _key_writes(stmt):
                value = write.value
                is_opaque = (
                    isinstance(value, ast.Name)
                    and value.id == "payload"
                ) or (
                    isinstance(value, ast.Attribute)
                    and value.attr == "payload"
                )
                if is_opaque and not sanitized:
                    yield _finding(
                        module,
                        write.node,
                        "SCOPE003",
                        f"opaque payload passes through under key "
                        f"'{write.key}' with no deterministic-branch strip "
                        "of timing-scoped fields (the PR 8 faults-in-digest "
                        "bug class)",
                        symbol,
                    )
