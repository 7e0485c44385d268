"""The public surface, checked by an AST scan of `src/` and `bench/`:

- every function and class that `transseries` exports is used by the
  kernel itself or by the benchmark, apart from the paper's constructions
  listed below;
- every public method, staticmethod, classmethod and property of those
  classes is read by the kernel or the benchmark, so a member that only
  tests read lives in the tests;
- every optional parameter of those functions and methods is passed by
  some call there, apart from the cut-pullback parameters listed below;
- every name a kernel or test module imports is read in that module."""

import ast
import inspect
import math
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

# parameters that no kernel or benchmark call passes, kept because they
# state the paper's cut-pullback lemma: a cut algebra is carried into its
# pullback under the operator
UNPASSED_PARAMETERS = (("lift_coefficientwise", "s_source"),
                       ("lift_coefficientwise", "s_target"))


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


def _public_members() -> dict:
    """(class, name) -> member for each public method, staticmethod,
    classmethod and property that an exported class defines."""
    out = {}
    for name in _exported():
        obj = getattr(transseries, name)
        if not inspect.isclass(obj):
            continue
        for attr, member in vars(obj).items():
            fn = getattr(member, "__func__", member)
            if not attr.startswith("_") and (inspect.isfunction(fn)
                                             or isinstance(member, property)):
                out[name, attr] = member
    return out


def _read_attributes() -> set:
    """The attribute names that the kernel modules (the export list aside)
    and the benchmark read."""
    paths = [path for path in (ROOT / "src" / "transseries").glob("*.py")
             if path.name != "__init__.py"]
    paths += (ROOT / "bench").glob("*.py")
    return {node.attr for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_public_member_is_read():
    read = _read_attributes()
    unread = sorted(f"{cls}.{attr}" for cls, attr in _public_members()
                    if attr not in read)
    assert not unread, unread


def _optional_parameters(callee: str, fn, bound: bool) -> set:
    """(callee, name, position) for each defaulted or keyword-only parameter
    of fn; position is its index among a call's positional arguments (after
    self or cls when bound), or None for a keyword-only parameter."""
    params = list(inspect.signature(fn).parameters.values())[bound:]
    out, position = set(), 0
    for p in params:
        if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            continue
        if p.kind == p.KEYWORD_ONLY:
            out.add((callee, p.name, None))
            continue
        if p.default is not p.empty:
            out.add((callee, p.name, position))
        position += 1
    return out


def _modes() -> set:
    """The optional parameters of the exported functions and of the public
    methods of the exported classes, each keyed by the name calls use."""
    out = set()
    for name in _exported():
        obj = getattr(transseries, name)
        if inspect.isfunction(obj):
            out |= _optional_parameters(name, obj, bound=False)
    for (_, attr), member in _public_members().items():
        fn = getattr(member, "__func__", member)
        if inspect.isfunction(fn):
            out |= _optional_parameters(
                attr, fn, bound=not isinstance(member, staticmethod))
    return out


def _calls() -> list:
    """(name, positional count, keyword names) for every call in `src/` and
    `bench/`, by the called name or attribute; a starred argument fills
    every position, and a double-starred one (keyword None) every keyword."""
    out = []
    paths = [*(ROOT / "src" / "transseries").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            out.append((name, math.inf if starred else len(node.args),
                        {k.arg for k in node.keywords}))
    return out


def _passed(mode: tuple, calls: list) -> bool:
    """Whether some call of the mode's name passes its parameter.  Calls are
    matched by name alone, so a mode can be missed but never a used one
    flagged."""
    callee, param, position = mode
    return any(name == callee and (param in keywords or None in keywords
                                   or (position is not None and position < npos))
               for name, npos, keywords in calls)


def test_every_parameter_is_passed_by_a_caller():
    calls = _calls()
    unpassed = sorted(mode[:2] for mode in _modes()
                      if mode[0] not in PAPER_CONSTRUCTIONS
                      and mode[:2] not in UNPASSED_PARAMETERS
                      and not _passed(mode, calls))
    assert not unpassed, unpassed


def test_the_exempt_parameters_are_still_unpassed():
    # a parameter that gains a caller leaves the exemption list
    calls = _calls()
    modes = {mode[:2]: mode for mode in _modes()}
    assert set(UNPASSED_PARAMETERS) <= set(modes)
    exempt = [mode for key, mode in modes.items()
              if key in UNPASSED_PARAMETERS or key[0] in PAPER_CONSTRUCTIONS]
    assert not [mode for mode in exempt if _passed(mode, calls)]


def _unread_imports(tree: ast.AST) -> list:
    """The names a module imports and never reads; the `__future__`
    imports are directives, not names."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_every_import_is_read():
    # the package's __init__ imports in order to export
    paths = [path for path in (ROOT / "src" / "transseries").glob("*.py")
             if path.name != "__init__.py"]
    paths += (ROOT / "tests").glob("*.py")
    unread = {f"{path.relative_to(ROOT)}: {name}" for path in paths
              for name in _unread_imports(ast.parse(path.read_text()))}
    assert not unread, sorted(unread)
