"""Every defaulted parameter of a holodyn function is passed by some call
outside the tests, and every public top-level function and class is used
outside the tests.

A value counts as an option only when two callers outside the tests need
different values.  So a parameter with a default that no call in ``src/``,
``scripts/`` or ``perfbench/`` sets, even one the tests set, has one value
in use, and that value is a constant of the module that reads it.  Two kinds
are exempt, each with its reason: the parameters of the ``_UNCALLED``
functions, which have no caller outside the tests yet, and those named in
``_REFERENCE_PARAMETERS``.  A call sets a parameter by keyword or by
position; a call of a class sets the parameters of its ``__init__``.
``**kwargs`` forwarding sets nothing, and positions are counted only up to
the first ``*args``.  Calls are matched to definitions by name alone, so a
parameter may be passed to a namesake; that can hide a knob but never report
a false one.

A public top-level function, class or assigned name (a constant) of
``src/holodyn``, and a public method or property of any class there, is
used when its name is read (as a loaded name, an attribute or a whole
string, as ``getattr`` takes it; an assignment is no read) somewhere
in ``src/``, ``scripts/`` or ``perfbench/``; a top-level function under a
decorator counts as used, since the decorator registers it (the
``cli.cmd_*`` handlers).  Names are matched alone here too, so a namesake
can hide dead code but never report live code as dead.
"""
from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "holodyn"
NON_TEST = ("src", "scripts", "perfbench")


def _defaulted_parameters(path: Path):
    """(qualname, call name, parameter, call position or None) per default."""
    module = path.stem
    out = []

    def visit(node, scope, cls):
        """cls is the name of the class whose body node is, else None."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list
                )
                bound = cls is not None and not static
                qual = ".".join([module, *scope, child.name])
                callee = cls if bound and child.name == "__init__" else child.name
                a = child.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i, p in enumerate(positional[first:], start=first):
                    out.append((qual, callee, p.arg, i - 1 if bound else i))
                for p, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        out.append((qual, callee, p.arg, None))
                visit(child, scope + [child.name], None)
            else:
                visit(child, scope, cls)

    visit(ast.parse(path.read_text(), filename=str(path)), [], None)
    return out


def _passed_by_calls():
    """Call name -> (keywords set, most positional arguments) over all callers."""
    keywords = defaultdict(set)
    positions = defaultdict(int)
    for top in NON_TEST:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                if name is None:
                    continue
                n = 0
                for arg in node.args:
                    if isinstance(arg, ast.Starred):
                        break
                    n += 1
                positions[name] = max(positions[name], n)
                keywords[name].update(kw.arg for kw in node.keywords if kw.arg is not None)
    return keywords, positions


# defaulted parameters that no call outside the tests sets, and why they stay
_REFERENCE_PARAMETERS = {
    "basin.orbit(conv_tol)": "orbit is the scalar reference that perfbench and the tests "
    "compare orbit_verdicts against, so it takes any tolerance interior --conv-tol can set",
}


def test_every_defaulted_parameter_is_passed_somewhere():
    keywords, positions = _passed_by_calls()
    unpassed = []
    for path in sorted(LIBRARY.glob("*.py")):
        for qual, callee, param, pos in _defaulted_parameters(path):
            by_position = pos is not None and positions[callee] > pos
            if param not in keywords[callee] and not by_position and qual not in _UNCALLED:
                unpassed.append(f"{qual}({param})")
    assert sorted(unpassed) == sorted(_REFERENCE_PARAMETERS), (
        "defaulted parameters no call outside the tests passes (make each a constant "
        "next to its user), or exceptions that now have a caller: "
        + ", ".join(sorted(set(unpassed) ^ set(_REFERENCE_PARAMETERS)))
    )


# public definitions with no caller outside the tests yet, and why they stay
_UNCALLED = {
    "manifold.is_in_stable": "ROADMAP item 2's slice points are to call it",
    "parabolic.make_nondegenerate": "the paper's perturbation of a degenerate direction",
}


def test_every_public_definition_is_used_outside_the_tests():
    read = set()
    for top in NON_TEST:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    if isinstance(node.ctx, ast.Load):
                        read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    uncalled = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                uncalled += [
                    f"{path.stem}.{node.name}.{m.name}"
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                    and m.name not in read
                ]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                uncalled += [
                    f"{path.stem}.{t.id}"
                    for target in targets
                    for t in ast.walk(target)
                    if isinstance(t, ast.Name) and not t.id.startswith("_") and t.id not in read
                ]
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            registered = isinstance(node, ast.FunctionDef) and node.decorator_list
            if node.name not in read and not registered:
                uncalled.append(f"{path.stem}.{node.name}")
    assert sorted(uncalled) == sorted(_UNCALLED), (
        "public definitions used only by the tests (move them to tests/conftest.py "
        "or delete them), or exceptions that now have a caller: "
        + ", ".join(sorted(set(uncalled) ^ set(_UNCALLED)))
    )


def test_benchmark_tracer_installs_and_uninstalls():
    """perfbench/tracer.py wraps the public functions of every layer and takes
    the chain methods it wraps from cls.__dict__[name]; a library change that
    moves one of those methods off its class fails here, not in the benchmark."""
    import importlib
    import importlib.util
    import pkgutil

    import holodyn

    modules = [
        importlib.import_module(f"holodyn.{m.name}") for m in pkgutil.iter_modules(holodyn.__path__)
    ]
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    before = [dict(vars(m)) for m in modules]
    evaluate_batch = holodyn.core.AutoChain.__dict__["evaluate_batch"]
    rec = tracer.Recorder()
    try:
        rec.install()
        assert holodyn.core.AutoChain.__dict__["evaluate_batch"] is not evaluate_batch
    finally:
        rec.uninstall()
    assert holodyn.core.AutoChain.__dict__["evaluate_batch"] is evaluate_batch
    assert [dict(vars(m)) for m in modules] == before


def test_every_error_is_its_class_and_one_message():
    """The classes of errors.py define no method and store no attribute, and
    every raise of one of them in src/ passes exactly one positional argument,
    its message, and no keyword."""
    tree = ast.parse((LIBRARY / "errors.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    stateful = [
        f"errors.{cls.name}"
        for cls in classes
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Assign, ast.AnnAssign))
    ]
    assert stateful == []
    names = {cls.name for cls in classes}
    bad = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            f = node.exc.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            args, keywords = node.exc.args, node.exc.keywords
            one_message = len(args) == 1 and not isinstance(args[0], ast.Starred) and not keywords
            if name in names and not one_message:
                bad.append(f"{path.stem}:{node.lineno} {name}")
    assert bad == []


def test_only_core_imports_threads():
    """core.iterate_live is the library's one thread pool: no other module of
    src/holodyn imports threading or concurrent."""
    threaded = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("threading", "concurrent") for name in names):
                threaded.append(path.stem)
    assert set(threaded) <= {"core"} and "core" in threaded
