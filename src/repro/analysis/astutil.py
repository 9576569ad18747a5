"""Small AST helpers shared by the rule modules."""

from __future__ import annotations

import ast
from collections.abc import Iterator


def walk_with_symbol(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, str | None]]:
    """Yield every node with its enclosing ``Class.function`` symbol.

    The symbol is the dotted chain of enclosing ``ClassDef`` /
    ``FunctionDef`` names (``None`` at module top level), used to label
    findings so a report line reads like a traceback frame.
    """

    def visit(node: ast.AST, stack: tuple[str, ...]) -> Iterator:
        symbol = ".".join(stack) if stack else None
        yield node, symbol
        child_stack = stack
        if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            child_stack = stack + (node.name,)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, child_stack)

    yield from visit(tree, ())


def terminal_name(node: ast.AST) -> str | None:
    """The rightmost identifier of a ``Name``/``Attribute`` chain.

    ``conn.send`` -> ``send``; ``self._pool.workers`` -> ``workers``;
    anything else (subscripts, calls) -> ``None``.
    """
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def dotted_name(node: ast.AST) -> str | None:
    """Full dotted form of a ``Name``/``Attribute`` chain, if pure.

    ``time.perf_counter`` -> ``"time.perf_counter"``; chains that pass
    through calls or subscripts -> ``None``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_func_name(node: ast.AST) -> str | None:
    """For a ``Call``, the called function's terminal name, else ``None``."""
    if isinstance(node, ast.Call):
        return terminal_name(node.func)
    return None


def names_in(node: ast.AST) -> set[str]:
    """Every bare ``Name`` identifier appearing under ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def string_constants_in(node: ast.AST) -> set[str]:
    """Every string literal appearing under ``node``."""
    return {
        n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }
