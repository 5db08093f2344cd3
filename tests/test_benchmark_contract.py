"""The names the benchmark under ``perfbench/`` reads from the package.

``perfbench/spans.py`` wraps each function its ``TRACED`` table names,
looked up with ``getattr`` and no default, and ``perfbench/workloads.py``
calls the package through ``pg.<name>``.  A package name they use that
disappears breaks the benchmark, not a package test, so these tests read
both files as source (nothing under ``perfbench/`` is imported or run).
"""
from __future__ import annotations

import ast
import importlib
import inspect
import pathlib

import partialgossip
import partialgossip.cli  # noqa: F401  (workloads.py reaches it as pg.cli)
from partialgossip import LemmaParams

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _traced() -> dict[str, tuple[str, ...]]:
    for node in ast.walk(_tree("spans.py")):
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("spans.py has no TRACED table")


def _pg_chains() -> set[str]:
    """Every ``pg.a.b`` (or ``self.pg.a.b``) attribute chain in workloads.py, as 'a.b'."""
    chains = set()
    for node in ast.walk(_tree("workloads.py")):
        if isinstance(node, ast.Attribute):
            text = ast.unparse(node)
            for prefix in ("pg.", "self.pg."):
                chain = text.removeprefix(prefix)
                if chain != text and all(map(str.isidentifier, chain.split("."))):
                    chains.add(chain)
    return chains


def test_every_traced_name_resolves():
    traced = [(layer, func) for layer, funcs in _traced().items() for func in funcs]
    assert ("lemmas", "check_lemma") in traced  # the parse found the table
    missing = [f"{layer}.{func}" for layer, func in traced
               if not callable(getattr(importlib.import_module(f"partialgossip.{layer}"), func,
                                       None))]
    assert missing == []


def test_every_workload_name_resolves():
    chains = _pg_chains()
    assert {"check_lemma", "cli.main", "min_calls_bruteforce"} <= chains  # the parse found them
    for chain in sorted(chains):
        obj = partialgossip
        for attr in chain.split("."):
            obj = getattr(obj, attr)  # AttributeError names a missing one


def test_lemma_params_keywords_accepted():
    keywords = {kw.arg for node in ast.walk(_tree("workloads.py"))
                if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("LemmaParams")
                for kw in node.keywords}
    assert keywords
    inspect.signature(LemmaParams).bind(**dict.fromkeys(keywords, 0))
