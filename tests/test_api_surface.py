"""Every definition in the package has a caller outside the tests: a
top-level function, class or non-dunder method that only tests reach is API
that the CLI, the studies and the benchmark do not need.  Likewise every
parameter default: a setting that no caller outside the tests passes is a
constant, not a setting."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lissakit"

# Definitions that only tests read: none.  A reference implementation that
# tests compare the program against lives in tests/_reference.py.
TEST_ONLY = set()

# Read only by the benchmark's output checks (perfbench/checks.py): nothing in
# the program or the studies may call it, and the entry and the definition go
# once the benchmark reads the loss_gradients block instead.
BENCHMARK_ONLY = {"loss_gradient"}

PROGRAM = ("src/**/*.py", "scripts/**/*.py")
BENCHMARK = ("perfbench/**/*.py",)

# A string such as "lissakit.gnh:GnhOperator.matvec" names its target, as the
# benchmark's tracing probes do.
_TARGET = re.compile(r"^lissakit(?:\.\w+)*:([\w.]+)$")


def definitions():
    """(file, name) of every top-level function and class of the package and
    of every non-dunder method of its top-level classes."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (path.name, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                ]
    return found


def referenced_names(*patterns):
    """Every name that the non-test sources matching ``patterns`` read: names,
    attributes, imported names and the targets of probe strings."""
    names = set()
    for path in (path for pattern in patterns for path in ROOT.glob(pattern)):
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                match = _TARGET.match(node.value)
                if match:
                    names.update(match.group(1).split("."))
    return names


def test_every_definition_has_a_caller_outside_the_tests():
    defined = definitions()
    assert len(defined) > 50
    names = referenced_names(*PROGRAM, *BENCHMARK)
    unused = sorted(f"{path}: {name}" for path, name in defined if name.rsplit(".", 1)[-1] not in names)
    # a stale entry of TEST_ONLY fails as well as a new unread definition
    assert {entry.rsplit(".", 1)[-1].split(": ")[-1] for entry in unused} == TEST_ONLY, unused


def test_benchmark_only_names_are_read_by_the_benchmark_alone():
    assert not BENCHMARK_ONLY & referenced_names(*PROGRAM)
    assert BENCHMARK_ONLY <= referenced_names(*BENCHMARK)


def signatures():
    """(file, name, positional parameters, every parameter, defaulted
    parameters) of the package's top-level functions and of its top-level
    classes' methods.  A method is called by its own name, an ``__init__`` by
    its class's; a bound method's first parameter is not passed."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            functions = [(node.name, node, False)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                        name = node.name if item.name == "__init__" else item.name
                        functions.append((name, item, not static))
            for name, fn, bound in functions:
                a = fn.args
                positional = [p.arg for p in a.posonlyargs + a.args][int(bound) :]
                keyword_only = [p.arg for p in a.kwonlyargs]
                defaulted = positional[len(positional) - len(a.defaults) :] if a.defaults else []
                defaulted += [p for p, d in zip(keyword_only, a.kw_defaults) if d is not None]
                found.append((path.name, name, positional, positional + keyword_only, defaulted))
    return found


def program_calls(*patterns):
    """For each called name (a function, or a method or class by its last
    attribute), the parameters that non-test calls matching ``patterns`` pass,
    as (positional count, keywords, whether a * or ** argument passes all)."""
    calls = {}
    for path in (path for pattern in patterns for path in ROOT.glob(pattern)):
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((len(node.args), keywords - {None}, starred or None in keywords))
    return calls


def test_every_default_is_set_by_a_program_caller():
    found = signatures()
    assert sum(bool(defaulted) for *_, defaulted in found) > 10
    calls = program_calls(*PROGRAM, *BENCHMARK)
    unset = []
    for path, name, positional, params, defaulted in found:
        passed = set()
        for count, keywords, passes_all in calls.get(name, ()):
            passed |= set(params) if passes_all else set(positional[:count]) | keywords
        unset += [f"{path}: {name}({param})" for param in defaulted if param not in passed]
    assert unset == [], unset


def test_every_operator_keeps_the_whole_protocol():
    """The operator protocol is n_params, segments, matvec and reseeded, the
    one source of an operator's stream, which lissa_solve calls on every
    operator: a class of the package with a matvec defines reseeded and sets
    n_params and segments on self."""
    operators = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            if "matvec" not in methods:
                continue
            assigned = {
                target.attr
                for item in ast.walk(node) if isinstance(item, ast.Assign)
                for target in item.targets
                if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self"
            }
            assert "reseeded" in methods and {"n_params", "segments"} <= assigned, node.name
            operators.append(node.name)
    assert sorted(operators) == ["GnhOperator", "RotatedRankOneSampler"]
