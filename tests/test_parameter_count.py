"""A ratchet on the library's defaulted parameters.

A parameter with a default is a setting someone may have to choose; the
library keeps one only where something other than a unit test sets it.
This test counts them over every ``def`` in ``src/flowtree`` with ``ast``,
positional and keyword-only defaults alike, and fails when the count rises
past the number stated in ROADMAP.md.  When a change removes some, lower
the bound here and there together.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "flowtree"
MAX_DEFAULTED = 12


def defaulted_parameters() -> list[str]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
                found += [f"{path.stem}.{node.name}:{a.arg}" for a in named]
    return found


def test_defaulted_parameters_do_not_grow():
    found = defaulted_parameters()
    assert len(found) <= MAX_DEFAULTED, found
