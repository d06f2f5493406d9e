"""REP002 — dataset state mutations must go through sanctioned mutators.

``Dataset`` caches columnar projections in ``_columnar``; every sanctioned
mutator invalidates the affected entries.  A write to ``_records`` /
``_columnar`` / ``_schema`` (or a call to the private ``Record`` mutators)
from anywhere else can leave the cache describing records that no longer
exist — the bug class PR 3's columnar kernels made possible and PR 5's
universe-aware estimation made expensive to debug.  The ``_rows`` /
``_encoded`` state behind ``_records`` is protected the same way: an encoded
dataset decodes through ``_records`` before its rows can be touched.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import Finding, ModuleContext, Rule, register
from repro.analysis.manifest import InvariantManifest

#: Method names that mutate a list/dict in place when called on a protected
#: attribute (``x._records.append(...)``, ``x._columnar.clear()``).
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "sort",
        "reverse",
        "setdefault",
        "update",
    }
)


def _protected_attr(node: ast.expr, protected: tuple[str, ...]) -> str | None:
    if isinstance(node, ast.Attribute) and node.attr in protected:
        return node.attr
    return None


@register
class CacheDiscipline(Rule):
    code = "REP002"
    name = "cache-invalidation-discipline"
    summary = "Dataset record/attribute state may only be written by sanctioned mutators"
    explanation = (
        "Dataset._columnar caches column projections and is invalidated by "
        "the public mutators (append, set_value, map_column, ...).  Writing "
        "_records/_columnar/_schema directly, mutating them in place, or "
        "calling the private Record mutators (_set/_delete/_rename) from "
        "outside the sanctioned modules bypasses that invalidation and "
        "silently desynchronizes the cache from the records.  Route changes "
        "through Dataset's public API; if a module genuinely needs raw "
        "access (e.g. the shared-memory attach path rebuilding a fresh "
        "Dataset) suppress with a reason explaining why the cache stays "
        "coherent."
    )
    scope_prefixes = ("src/",)

    def check_module(
        self, module: ModuleContext, manifest: InvariantManifest
    ) -> Iterable[Finding]:
        if module.relpath in manifest.sanctioned_modules:
            return
        protected = manifest.protected_attributes
        mutators = frozenset(manifest.record_mutators)
        for node in module.walk():
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    attr = _protected_attr(target, protected)
                    if attr is None and isinstance(target, ast.Subscript):
                        attr = _protected_attr(target.value, protected)
                    if attr is not None:
                        yield module.finding(
                            self,
                            node,
                            f"write to {attr} outside the sanctioned mutators "
                            f"bypasses columnar-cache invalidation",
                        )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = _protected_attr(target, protected)
                    if isinstance(target, ast.Subscript):
                        attr = attr or _protected_attr(target.value, protected)
                    if attr is not None:
                        yield module.finding(
                            self,
                            node,
                            f"delete of {attr} outside the sanctioned mutators "
                            f"bypasses columnar-cache invalidation",
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in mutators:
                    yield module.finding(
                        self,
                        node,
                        f"call to private Record mutator {node.func.attr}() "
                        f"outside the sanctioned modules; use Dataset's "
                        f"public mutators instead",
                    )
                elif node.func.attr in _MUTATING_METHODS:
                    attr = _protected_attr(node.func.value, protected)
                    if attr is not None:
                        yield module.finding(
                            self,
                            node,
                            f"in-place mutation of {attr} via "
                            f".{node.func.attr}() outside the sanctioned "
                            f"mutators bypasses columnar-cache invalidation",
                        )
