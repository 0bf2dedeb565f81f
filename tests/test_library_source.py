"""Static checks on the library source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orehopf"


def _assert_sites(tree):
    """Line numbers of assert statements and of raise AssertionError."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_control_flow(path):
    # python -O strips assert statements; library errors must be explicit
    sites = list(_assert_sites(ast.parse(path.read_text(), filename=str(path))))
    assert sites == [], f"{path.name}: assert control flow at lines {sites}"


def test_the_check_sees_both_forms():
    tree = ast.parse("assert x\nraise AssertionError('a')\nraise AssertionError\n"
                     "raise ValueError('b')\n")
    assert list(_assert_sites(tree)) == [1, 2, 3]


def _is_mat_mul(node) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "mat_mul") or \
        (isinstance(func, ast.Attribute) and func.attr == "mat_mul")


def _product_comparisons(tree):
    """Line numbers of == and != comparisons between two mat_mul(...) calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)) and _is_mat_mul(left) \
                        and _is_mat_mul(right):
                    yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_identity_compares_two_built_products(path):
    # an exact identity L1 L2 = R1 R2 goes through linalg.first_mismatch,
    # which builds neither product
    sites = list(_product_comparisons(ast.parse(path.read_text(), filename=str(path))))
    assert sites == [], f"{path.name}: mat_mul(...) == mat_mul(...) at lines {sites}"


def test_the_product_check_sees_both_operators():
    tree = ast.parse("mat_mul(A, B) == mat_mul(B, A)\nok = linalg.mat_mul(A, B) != mat_mul(C, D)\n"
                     "mat_mul(A, B) == C\nmat_mul(A, B) is mat_mul(B, A)\n"
                     "x < mat_mul(A, B) == mat_mul(B, A)\n")
    assert list(_product_comparisons(tree)) == [1, 2, 5]


def _literal_checks(tree):
    """Line numbers of the calls x.check(name, passed, ...) whose passed
    argument, positional or keyword, is a literal."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "check"):
            continue
        passed = [k.value for k in node.keywords if k.arg == "passed"]
        if len(node.args) > 1:
            passed.append(node.args[1])
        if any(isinstance(arg, ast.Constant) for arg in passed):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_check_passes_a_literal(path):
    # a fact that cannot fail is a plain value, not a check
    sites = list(_literal_checks(ast.parse(path.read_text(), filename=str(path))))
    assert sites == [], f"{path.name}: check( with a literal passed at lines {sites}"


def test_the_literal_check_sees_both_forms():
    tree = ast.parse("f.check('a', True, 1)\nf.check('b', ok)\n"
                     "f.check('c', passed=False)\ncheck('d', True)\n"
                     "f.check('e', passed=ok, value=None)\nf.check(None)\n")
    assert list(_literal_checks(tree)) == [1, 3]


def _inverse_tests(tree):
    """Line numbers of the comparisons of a call inverse(...), with at least
    one argument, with None: an inverse built only to test invertibility."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        if any(isinstance(op, ast.Constant) and op.value is None for op in operands) and any(
                isinstance(op, ast.Call) and op.args
                and getattr(op.func, "id", getattr(op.func, "attr", None)) == "inverse"
                for op in operands):
            yield node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_inverse_built_to_test_invertibility(path):
    # invertibility is a rank (linalg.full_rank); an inverse is built only
    # where it is read
    sites = list(_inverse_tests(ast.parse(path.read_text(), filename=str(path))))
    assert sites == [], f"{path.name}: inverse(...) compared with None at lines {sites}"


def test_the_inverse_check_sees_both_forms():
    tree = ast.parse("inverse(A) is None\nif inverse(B) is not None:\n    pass\n"
                     "T = inverse(C)\nok = T is not None\nlinalg.inverse(D) is None\n"
                     "x.inverse() is None\nNone is not inverse(E)\ninverse(F) == G\n")
    assert list(_inverse_tests(tree)) == [1, 2, 6, 8]


def _unused_imports(tree):
    """(line, name) of every name an import binds and the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert unused == [], f"{path.name}: unused imports {unused}"


def test_the_import_check_sees_unused_names():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from a import b, c as d\nimport e\nb(e.f)\n")
    assert _unused_imports(tree) == [(2, "os"), (3, "d")]


def _reads(tree, skip=None):
    """Names a tree reads, as names or attributes, outside the node skip."""
    stack, names = [tree], set()
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


# module-level functions the interpreter calls (PEP 562)
MODULE_HOOKS = {"__getattr__", "__dir__"}


def _dead_definitions(tree, other_trees, exported):
    """(line, name) of every top-level function and class of tree that is
    not exported, not a module hook and is read nowhere, its own body
    aside."""
    elsewhere = set(exported).union(MODULE_HOOKS, *(_reads(t) for t in other_trees))
    return [(node.lineno, node.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in elsewhere | _reads(tree, skip=node)]


def _parsed_sources():
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_definitions(path):
    import orehopf
    trees = _parsed_sources()
    tree = trees.pop(path.name)
    dead = _dead_definitions(tree, trees.values(), orehopf.__all__)
    assert dead == [], f"{path.name}: defined but never read in src/ {dead}"


def _dead_attributes(trees):
    """(file, line, name) of every attribute assigned on self that no tree
    reads as an attribute."""
    assigned, read = [], set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                assigned.append((name, node.lineno, node.attr))
    return sorted(a for a in assigned if a[2] not in read)


def test_no_dead_attributes():
    dead = _dead_attributes(_parsed_sources())
    assert dead == [], f"assigned on self but never read in src/: {dead}"


def test_the_attribute_check_sees_unread_attributes():
    trees = {"a.py": ast.parse("class A:\n    def __init__(self):\n"
                               "        self.kept = 1\n        self.dead = 2\n"
                               "        self.both, self.gone = 3, 4\n\n"
                               "    def f(self):\n        return self.kept\n"),
             "b.py": ast.parse("def g(a):\n    a.other = 1\n    return a.both\n")}
    assert _dead_attributes(trees) == [("a.py", 4, "dead"), ("a.py", 5, "gone")]


def test_the_definition_check_sees_unused_names():
    tree = ast.parse("def a():\n    return a()\n\ndef b():\n    return c.d\n\n"
                     "class C:\n    pass\n\ndef d():\n    pass\n\n"
                     "def e():\n    pass\n\nx = b()\n\n"
                     "def __getattr__(name):\n    pass\n\ndef __dir__():\n    pass\n\n"
                     "def __repr__():\n    pass\n")
    other = ast.parse("from m import C\n")
    assert _dead_definitions(tree, [other], ["e"]) == [(1, "a"), (7, "C"), (24, "__repr__")]


def _defaulted_parameters(tree):
    """(line, name, parameter, position) of every parameter with a default
    on a function of tree.  name is what a call spells: the function's own
    name, or the class name for __init__.  position counts the arguments a
    caller passes positionally (self and cls left out); None for
    keyword-only parameters."""
    methods = {}  # method -> (class name, bound arguments a call omits)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    methods[item] = (node.name, 0 if static else 1)
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        owner, bound = methods.get(node, (None, 0))
        name = owner if node.name == "__init__" and owner else node.name
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for index, arg in enumerate(positional[first:], start=first):
            yield node.lineno, name, arg.arg, index - bound
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.lineno, name, arg.arg, None


def _passed(calls, parameter, position):
    """Whether one of the calls, each (positional count, keyword names,
    unpacks *args, unpacks **kwargs), passes the parameter."""
    return any(kwargs or parameter in keywords
               or (position is not None and (star or npos > position))
               for npos, keywords, star, kwargs in calls)


def _unset_parameters(trees, caller_trees):
    """(file, line, name, parameter) of every parameter with a default that
    no call in caller_trees passes; calls are matched by name."""
    calls = {}
    for tree in caller_trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append((
                len(node.args), {k.arg for k in node.keywords},
                any(isinstance(a, ast.Starred) for a in node.args),
                any(k.arg is None for k in node.keywords)))
    return sorted((file, line, name, parameter)
                  for file, tree in trees.items()
                  for line, name, parameter, position in _defaulted_parameters(tree)
                  if not _passed(calls.get(name, []), parameter, position))


def test_no_unset_parameters():
    # a default that every caller keeps is a constant; a knob nobody turns
    # is code to delete
    root = SRC.parent.parent
    callers = [ast.parse(p.read_text(), filename=str(p))
               for folder in ("src", "tests", "perfbench")
               for p in sorted((root / folder).rglob("*.py"))]
    unset = _unset_parameters(_parsed_sources(), callers)
    assert unset == [], f"parameters no call passes: {unset}"


def test_the_parameter_check_sees_unset_defaults():
    tree = ast.parse("def f(a, b=1, *, c=2, d=3):\n    pass\n\n"
                     "class K:\n    def __init__(self, x=0, y=0):\n        pass\n\n"
                     "    def m(self, z=1):\n        pass\n\n"
                     "    @staticmethod\n    def s(w=1):\n        pass\n\n"
                     "def g(u=1, v=2):\n    pass\n")
    calls = ast.parse("f(1, c=3)\nK(1)\nk.m()\nK.s(2)\ng(*args)\n")
    assert _unset_parameters({"a.py": tree}, [tree, calls]) == [
        ("a.py", 1, "f", "b"), ("a.py", 1, "f", "d"), ("a.py", 5, "K", "y"),
        ("a.py", 8, "m", "z")]


def _probe(code):
    """Standard output of code, run in a fresh interpreter started with -S
    and with src/ as PYTHONPATH."""
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent))).stdout


def _newly_loaded(statement):
    """Names of the modules that running statement adds to sys.modules, in
    a fresh interpreter started with -S and with src/ as PYTHONPATH."""
    return set(_probe("import sys\nbefore = set(sys.modules)\n" + statement
                      + "\nprint(' '.join(sorted(set(sys.modules) - before)))\n").split())


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every CLI call imports the package, and dataclasses would bring in
    # inspect, ast, dis and tokenize with it
    loaded = _newly_loaded("import orehopf.cli")
    assert "orehopf.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


def test_the_import_probe_sees_a_loaded_module():
    assert {"dataclasses", "inspect"} <= _newly_loaded("import dataclasses")


LAYERS = {"abgroup", "catalog", "cyclotomic", "exprparse", "hopfcore", "linalg",
          "quotient", "report", "reps"}


def test_import_registers_every_layer_and_runs_none():
    # perfbench/tracer.py wraps the orehopf modules it finds in sys.modules
    # right after import orehopf, so every layer must be there, and reading
    # its vars() must run it
    out = _probe("import sys, types\nimport orehopf\n"
                 "layers = {n: m for n, m in sys.modules.items() if n.startswith('orehopf.')}\n"
                 "print(' '.join(n for n, m in layers.items() if type(m) is types.ModuleType))\n"
                 "print(' '.join(layers))\n"
                 "vars(layers['orehopf.reps'])\n"
                 "print(type(layers['orehopf.reps']) is types.ModuleType)\n")
    run, registered, reps_runs = out.split("\n")[:3]
    assert run == ""
    assert set(registered.split()) == {f"orehopf.{layer}" for layer in LAYERS}
    assert reps_runs == "True"


def test_every_exported_name_is_its_layers_object():
    import orehopf
    namespace = {}
    exec("from orehopf import *", namespace)
    del namespace["__builtins__"]
    assert len(orehopf.__all__) == len(set(orehopf.__all__)) == len(namespace) == 70
    for name in orehopf.__all__:
        obj = namespace[name]
        home = sys.modules[obj.__module__]
        assert home.__name__.rpartition(".")[2] in LAYERS, name
        assert getattr(home, name) is obj is getattr(orehopf, name), name
    assert set(orehopf.__all__) | LAYERS <= set(dir(orehopf))
    assert not hasattr(orehopf, "no_such_name")
