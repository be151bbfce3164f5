"""Every defaulted parameter of a holodyn function is passed by some call.

A parameter with a default that no call in ``src/``, ``scripts/``,
``perfbench/`` or ``tests/`` ever sets has one value in use, and such a
value is a constant of the module that reads it, not an option.  A call
sets a parameter by keyword or by position; a call of a class sets the
parameters of its ``__init__``.  ``**kwargs`` forwarding sets nothing, and
positions are counted only up to the first ``*args``.  Calls are matched to
definitions by name alone, so a parameter may be passed to a namesake; that
can hide a knob but never report a false one.
"""
from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "holodyn"
CALLERS = ("src", "scripts", "perfbench", "tests")


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
    for top in CALLERS:
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


def test_every_defaulted_parameter_is_passed_somewhere():
    keywords, positions = _passed_by_calls()
    unpassed = []
    for path in sorted(LIBRARY.glob("*.py")):
        for qual, callee, param, pos in _defaulted_parameters(path):
            by_position = pos is not None and positions[callee] > pos
            if param not in keywords[callee] and not by_position:
                unpassed.append(f"{qual}({param})")
    assert not unpassed, (
        f"{len(unpassed)} defaulted parameters are never passed; make each a constant "
        "next to its user: " + ", ".join(unpassed)
    )
