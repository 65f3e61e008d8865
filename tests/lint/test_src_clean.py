"""Self-hosting: the shipped sources lint clean against the committed
baseline — the same invariant CI enforces with ``repro lint --strict``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint import Baseline, run_lint
from repro.lint.lock_hierarchy import THREAD_SHARED

REPO = Path(__file__).resolve().parents[2]


def test_src_lints_clean_with_committed_baseline():
    baseline = Baseline.load(REPO / "lint-baseline.json")
    report = run_lint([REPO / "src"], baseline)
    assert report.exit_code(strict=True) == 0, report.to_text()
    assert report.files_checked > 50


def test_committed_baseline_has_no_stale_entries():
    baseline = Baseline.load(REPO / "lint-baseline.json")
    report = run_lint([REPO / "src"], baseline)
    assert "RPL002" not in report.codes(), report.to_text()
    assert report.baselined == len(baseline.entries)


def _assigned_attrs(cls: ast.ClassDef) -> set[str]:
    """Attributes a class assigns: ``self.<name>`` stores in its methods
    plus class-body fields (dataclass style)."""
    names: set[str] = set()
    for statement in cls.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            names.add(statement.target.id)
        elif isinstance(statement, ast.Assign):
            names.update(t.id for t in statement.targets if isinstance(t, ast.Name))
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    names.add(node.attr)
    return names


def test_guard_specs_name_assigned_attributes():
    """Every attribute a THREAD_SHARED guard spec names is assigned in its
    class: a renamed field would otherwise drop out of RPL201 silently."""
    assigned: dict[str, set[str]] = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name in THREAD_SHARED:
                assigned.setdefault(node.name, set()).update(_assigned_attrs(node))
    assert set(assigned) == set(THREAD_SHARED)
    stale = {}
    for name, spec in THREAD_SHARED.items():
        missing = [
            attr
            for attr in (spec.lock_attr, *spec.guarded)
            if attr not in assigned[name]
        ]
        if missing:
            stale[name] = missing
    assert stale == {}
