import ast
import glob
import os
import subprocess
import sys

import wordlogic
from wordlogic import errors


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no runtime dependencies
    package = os.path.dirname(wordlogic.__file__)
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or one from the package itself
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "wordlogic", \
                    (os.path.basename(path), node.lineno, name)
                # records come from wordlogic._record, at a fraction of the
                # import cost
                assert top != "dataclasses", \
                    (os.path.basename(path), node.lineno, name)


def test_import_loads_neither_dataclasses_nor_inspect():
    # the record classes are built without them, so import stays cheap;
    # -S keeps site hooks from importing them first
    src = os.path.dirname(os.path.dirname(wordlogic.__file__))
    code = ("import sys, wordlogic; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


class _Raises(ast.NodeVisitor):
    """(innermost enclosing function, raised expression, line) of every
    raise with an exception."""

    def __init__(self):
        self.where, self.found = None, []

    def visit_FunctionDef(self, node):
        outer, self.where = self.where, node.name
        self.generic_visit(node)
        self.where = outer

    def visit_Raise(self, node):
        if node.exc is not None:
            self.found.append((self.where, node.exc, node.lineno))
        self.generic_visit(node)


# The raises of other classes, by module, function and class
_UNTYPED_RAISES = {
    # what assigning to a frozen dataclass raises
    ("_record.py", "_frozen_setattr", "FrozenInstanceError"),
    ("_record.py", "_frozen_delattr", "FrozenInstanceError"),
    # a record class defined wrongly, when its module is imported
    ("_record.py", "record", "TypeError"),
    # caught by _Fields, which raises a FormatError in its place
    ("formats.py", "_flag", "ValueError"),
}


def test_every_raise_raises_a_wordlogic_error():
    typed = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.WordlogicError)}
    package = os.path.dirname(wordlogic.__file__)
    seen = set()
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        module = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        # a call of a function of the module raises what it is annotated
        # to return
        returns = {fn.name: fn.returns.id for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef)
                   and isinstance(fn.returns, ast.Name)}
        visitor = _Raises()
        visitor.visit(tree)
        for where, exc, line in visitor.found:
            callee = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(callee, ast.Name):
                name = callee.id
            elif isinstance(callee, ast.Attribute):
                name = returns.get(callee.attr)
            else:
                name = None
            if name not in typed:
                seen.add((module, where, name))
                assert (module, where, name) in _UNTYPED_RAISES, \
                    (module, line, ast.unparse(exc))
    assert seen == _UNTYPED_RAISES
