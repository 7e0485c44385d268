"""The public surface: every function and class that `transseries` exports
is used by the kernel itself or by the benchmark, found by an AST scan."""

import ast
import inspect
from pathlib import Path

import transseries

ROOT = Path(__file__).resolve().parents[1]

# the paper's own constructions, exported for library use although no
# kernel path or benchmark workload reaches them yet
PAPER_CONSTRUCTIONS = (
    "ps_translate", "ps_eval", "ps_compose", "cut_eval", "taylor_series",
    "faa_di_bruno_coeff", "spec_condition_check",
    "analytic_commutation_check", "chain_rule_transport_check",
)


def _exported() -> set:
    """The functions and classes in `transseries.__all__`."""
    return {name for name in transseries.__all__
            if inspect.isfunction(getattr(transseries, name))
            or inspect.isclass(getattr(transseries, name))}


def _used_names(tree: ast.AST, enclosing: tuple = ()) -> set:
    """The names a module reads, each outside the definitions of that name
    (a recursive call or a class naming itself is no caller)."""
    out = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out |= _used_names(node, enclosing + (node.name,))
            continue
        if isinstance(node, ast.Name) and node.id not in enclosing:
            out.add(node.id)
        out |= _used_names(node, enclosing)
    return out


def _bench_imports(tree: ast.AST) -> set:
    """The names a benchmark module imports from the kernel."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "transseries"
            for alias in node.names}


def _reached() -> set:
    got = set()
    for path in (ROOT / "src" / "transseries").glob("*.py"):
        if path.name != "__init__.py":     # the export list is no caller
            got |= _used_names(ast.parse(path.read_text()))
    for path in (ROOT / "bench").glob("*.py"):
        got |= _bench_imports(ast.parse(path.read_text()))
    return got


def test_every_export_has_a_caller():
    unreached = _exported() - _reached() - set(PAPER_CONSTRUCTIONS)
    assert not unreached, sorted(unreached)


def test_the_exempt_constructions_are_exported_and_unreached():
    # a construction that gains a caller, or leaves the package, leaves
    # the exemption list too
    exempt = set(PAPER_CONSTRUCTIONS)
    assert len(exempt) == 9
    assert exempt <= _exported()
    assert not exempt & _reached(), sorted(exempt & _reached())
