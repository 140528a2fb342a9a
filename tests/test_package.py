import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

import wordlogic
from wordlogic import errors

SRC = os.path.dirname(os.path.dirname(wordlogic.__file__))
DATA = os.path.join(os.path.dirname(__file__), "data")

# submodule -> the names the package exports from it
EXPORTS = {
    "algebra": """Cfg Dfa LanguageSpec Magma WordProblem
        brute_force_bracketings cfg_to_groupoid check_associative cyk_member
        groupoid_reachable is_neutral_letter_bounded is_symmetric_bounded
        language_member monoid_word_eval pad_language regular_to_monoid
        word_problem_member""",
    "builtins": "builtin_registry",
    "errors": "WordlogicError",
    "formats": "Toolbox load_toolbox",
    "leafauto": "LeafAutomaton leaf_count leaf_string leaffa_member",
    "logic": """CONCATENATED INTERLEAVED ConstStructure StringStructure
        define_language evaluate fragment_check induced_word instance_rank
        instance_unrank structure_from_string""",
    "sexpr": "format_formula parse_formula",
    "translate": """TranslationReport arity_collapse check_equivalence
        const_rewrite const_unrewrite exp_translate exp_translate_rev
        pad_translate q1_to_q_star q_star_to_q1 tally_member
        tally_translate_bwd tally_translate_fwd""",
}
EXPORTS = {module: names.split() for module, names in EXPORTS.items()}
# every exported name and every submodule name
PUBLIC = {name for module, names in EXPORTS.items()
          for name in (module, *names)}

# What loading a toolbox and building a registry imports, and what it may not
SET_UP_MODULES = ("_record", "errors", "algebra", "builtins", "leafauto",
                  "formats")
FORMULA_MODULES = ("logic", "sexpr", "translate", "cli", "generate")


def _fresh(code):
    """The output of code run by a fresh interpreter; -S keeps site hooks
    from importing modules first."""
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    return out.stdout.strip()


# prints the submodules loaded
_LOADED = "print(sorted(m for m in sys.modules if m.startswith('wordlogic.')))"


def test_import_loads_no_submodule():
    assert _fresh("import sys, wordlogic; " + _LOADED) == "[]"


def test_loading_a_toolbox_leaves_out_the_formula_modules():
    # the steps of perfbench/run.py's set_up
    code = f"""
import sys
from wordlogic import algebra, builtins, formats
reg = formats.load_toolbox([{DATA!r}]).languages
reg["MajPad"] = algebra.pad_language(reg["Maj"], "#", name="MajPad")
reg["LmodOdd"] = algebra.LanguageSpec(
    "LmodOdd", ("1", "0"), algebra.WordProblem.of(builtins.Z2, {{1}}),
    declared_neutral="0", letter_map={{"1": 1, "0": 0}})
reg["Lmod3"] = builtins.mod_counting_language(3)
{_LOADED}"""
    loaded = eval(_fresh(code))
    assert loaded == sorted("wordlogic." + m for m in SET_UP_MODULES)


def test_every_export_is_its_submodules_object():
    assert set(wordlogic.__all__) == PUBLIC and len(PUBLIC) == 59
    for module, names in EXPORTS.items():
        sub = importlib.import_module("wordlogic." + module)
        assert getattr(wordlogic, module) is sub
        for name in names:
            assert getattr(wordlogic, name) is getattr(sub, name), name
    assert PUBLIC <= set(dir(wordlogic))


def test_star_import_binds_the_exports():
    scope = {}
    exec("from wordlogic import *", scope)
    del scope["__builtins__"]
    assert set(scope) == PUBLIC
    for name, value in scope.items():
        assert value is getattr(wordlogic, name)


def test_an_unknown_name_is_refused():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        wordlogic.nope
    with pytest.raises(ImportError):
        from wordlogic import nope  # noqa: F401


def test_set_up_modules_import_no_formula_module():
    # so loading a toolbox never compiles the evaluator or the syntax
    package = os.path.dirname(wordlogic.__file__)
    for module in SET_UP_MODULES:
        path = os.path.join(package, module + ".py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [
                    alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                name = name.removeprefix("wordlogic.")
                assert name.split(".")[0] not in FORMULA_MODULES, \
                    (module, node.lineno, name)


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
    # every export is read, since a bare import loads no submodule
    code = ("import sys, wordlogic; "
            "[getattr(wordlogic, name) for name in wordlogic.__all__]; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert _fresh(code) == "[]"


class _InFunction(ast.NodeVisitor):
    """Tracks in where the name of the innermost function being visited;
    a subclass appends what it finds there to found."""

    def __init__(self):
        self.where, self.found = None, []

    def visit_FunctionDef(self, node):
        outer, self.where = self.where, node.name
        self.generic_visit(node)
        self.where = outer


class _Raises(_InFunction):
    """(innermost enclosing function, raised expression, line) of every
    raise with an exception."""

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
    # what a module's __getattr__ raises for a name it lacks (PEP 562)
    ("__init__.py", "__getattr__", "AttributeError"),
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


class _Opens(_InFunction):
    """(innermost enclosing function, line) of every call of a function
    or method named open."""

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            getattr(func, "attr", None)
        if name == "open":
            self.found.append((self.where, node.lineno))
        self.generic_visit(node)


def test_files_are_opened_by_one_reader():
    # formats.read_text turns a file that cannot be read or is not UTF-8
    # into a FormatError naming it, so no file flag can end in a traceback
    package = os.path.dirname(wordlogic.__file__)
    opens = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        visitor = _Opens()
        visitor.visit(tree)
        opens += [(os.path.basename(path), where, line)
                  for where, line in visitor.found]
    assert [(module, where) for module, where, _ in opens] == \
        [("formats.py", "read_text")], opens


def _wrapped_names():
    """(module, name) of every name perfbench/spans.py wraps on a wordlogic
    module, read from its source: such a name stays imported where the
    tracer looks it up, though the module itself may not read it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "spans.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {(node.elts[0].id, node.elts[1].value) for node in ast.walk(tree)
            if isinstance(node, ast.Tuple) and len(node.elts) == 2
            and isinstance(node.elts[0], ast.Name)
            and isinstance(node.elts[1], ast.Constant)}


def test_every_import_is_used():
    # no linter runs on the package, so an import left behind when the
    # code that read it goes would stay unseen
    package = os.path.dirname(wordlogic.__file__)
    wrapped = _wrapped_names()
    assert ("cli", "monoid_word_eval") in wrapped
    unused = []
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [(module, name, line) for name, line in imported.items()
                   if name not in read and (module, name) not in wrapped]
    assert unused == []


def test_every_private_name_is_read():
    # a private helper left behind when its last caller goes would stay
    # unseen: every module-level _name of the package is read somewhere in
    # it, by name, as an attribute or through an import
    package = os.path.dirname(wordlogic.__file__)
    defined, read = [], set()
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert defined
    assert [d for d in defined if d[1] not in read] == []


def test_every_private_class_member_is_read():
    # the same for a class: every _method or cached property a class body
    # defines is read as an attribute somewhere in the package
    package = os.path.dirname(wordlogic.__file__)
    defined, read = [], set()
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined += [
                    (os.path.basename(path), node.name, f.name)
                    for f in node.body if isinstance(f, ast.FunctionDef)
                    and f.name.startswith("_")
                    and not f.name.startswith("__")]
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert defined
    assert [d for d in defined if d[2] not in read] == []
