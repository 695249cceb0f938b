"""Every public name of the library has a caller outside the unit tests.

A public function, class or method of ``src/flowtree`` stays only if
something other than a unit test uses it: another library module, the
CLI, the benchmark's workloads (``perfbench/workloads.py``, read here and
never written), the acceptance criteria (``tests/test_acceptance.py``), a
Python example in the README or the package's script entry point.
Helpers that only tests use live in ``tests/conftest.py``.

Names are matched by name with ``ast``: a module-level function or class
counts as used where any caller reads the name (bare, as an attribute or
in an import), a method where a caller reads it as an attribute.  The
package's ``__init__`` re-exports names and calls none, so it is not a
caller; a library module is, also for its own names.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "flowtree").glob("*.py"))

# public names with no caller yet, each with the reason it stays
ALLOWED = {
    "analysis.QuadratureSpec": "the benchmark tracer's Riesz hook imports it",
    "ncpoly.NcPolynomial.adjoint": "the benchmark tracer wraps it by name",
    "ncpoly.NcPolynomial.norm": "the benchmark tracer wraps it by name",
}


def _public(path):
    """(name, is_method) for the module's public functions, classes and
    the public methods of its classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", True


def _reads(tree):
    """The names a syntax tree reads bare, as attributes, and in imports;
    a type annotation reads nothing."""
    bare, attrs = set(), set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            bare.update(alias.name for alias in node.names)
        todo += [c for c in ast.iter_child_nodes(node)
                 if not any(c is getattr(node, f, None) for f in ("annotation", "returns"))]
    return bare, attrs


def _callers():
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in LIBRARY
             if p.name != "__init__.py"]
    trees += [ast.parse((ROOT / rel).read_text(encoding="utf-8"))
              for rel in ("perfbench/workloads.py", "tests/test_acceptance.py")]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    script = re.search(r'flowtree = "flowtree\.cli:(\w+)"',
                       (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    bare, attrs = {script.group(1)}, set()
    for tree in trees:
        b, a = _reads(tree)
        bare |= b
        attrs |= a
    return bare, attrs


def unused_public_names():
    bare, attrs = _callers()
    unused = []
    for path in LIBRARY:
        for name, is_method in _public(path):
            last = name.rsplit(".", 1)[-1]
            used = last in attrs if is_method else (last in bare or last in attrs)
            if not used:
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    unused = [name for name in unused_public_names() if name not in ALLOWED]
    assert not unused, ("public names that only unit tests call; move them to "
                        f"tests/conftest.py or give them a caller: {unused}")


def test_every_allowed_name_still_exists_without_a_caller():
    assert set(ALLOWED) <= set(unused_public_names())
