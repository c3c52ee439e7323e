"""The CLI decides in one place which floating-point events are silent: cli.py
holds one np.errstate, in main, around the command it runs.  A non-finite
result surfaces through the commands' own checks and emit_csv's, never
through a FloatingPointError."""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "lissakit" / "cli.py"


def errstate_calls(node):
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "errstate"
    ]


def test_cli_holds_one_errstate_in_main():
    tree = ast.parse(CLI.read_text(), str(CLI))
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert len(errstate_calls(tree)) == 1
    (call,) = errstate_calls(main)
    assert [(kw.arg, kw.value.value) for kw in call.keywords] == [("all", "ignore")]


def test_cli_catches_no_floating_point_error():
    names = {node.id for node in ast.walk(ast.parse(CLI.read_text(), str(CLI))) if isinstance(node, ast.Name)}
    assert "FloatingPointError" not in names
