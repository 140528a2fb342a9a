import ast
import glob
import os
import subprocess
import sys

import wordlogic


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
