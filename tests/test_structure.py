"""Structure of the source: one output path and one tangent body.

Every output h and output Jacobian dh_dx the library evaluates goes
through `ode_core.outputs_rows` or `ode_core.output_jacobians_rows`,
which call the system's row callback or, row by row, its per-row one.
This test scans `src/obsmhe/*.py` and fails on any other use of a
system's output callbacks, so that a second output path does not come
back. `check_jacobians` compares the per-row callbacks with finite
differences and is the one other place allowed to use them.

Every window tangent (states, output Jacobians and STMs along a window)
comes from `cost.window_tangents`, so it and the one-row
`ode_core.flow_and_stm` are the only callers of
`ode_core.flow_and_stm_windows`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "obsmhe"
OUTPUT_CALLBACKS = ("h", "dh_dx", "h_rows", "dh_dx_rows")
# (module, function) allowed to use a system's output callbacks.
ALLOWED = {("ode_core", "outputs_rows"), ("ode_core", "output_jacobians_rows"),
           ("ode_core", "check_jacobians")}
# Names a system goes by; `grid.h` and the like are time steps.
SYSTEM_NAMES = ("sys", "sys_", "system")


def _is_system(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id in SYSTEM_NAMES) or \
        (isinstance(node, ast.Attribute) and node.attr == "sys")


# (module, function) allowed to call flow_and_stm_windows.
TANGENT_CALLERS = {("ode_core", "flow_and_stm"), ("cost", "window_tangents")}


def _calls_to(tree: ast.Module, name: str):
    """(top-level function or class, line) of every call of `name`, by
    its bare name or as a module attribute."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                yield getattr(top, "name", None), node.lineno


def _output_callback_uses(tree: ast.Module):
    """(top-level function or class, line) of every use of a system's
    output callback: any `.dh_dx`, `.h_rows` or `.dh_dx_rows`, and `.h`
    on a system or called. A function nested in an allowed function is
    allowed with it."""
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in OUTPUT_CALLBACKS and (
                    node.attr != "h" or id(node) in called or _is_system(node.value)):
                yield getattr(top, "name", None), node.lineno


def test_only_the_row_output_functions_use_output_callbacks():
    seen, stray = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, line in _output_callback_uses(tree):
            if (path.stem, function) in ALLOWED:
                seen.add((path.stem, function))
            else:
                stray.append(f"{path.name}:{line} in {function}")
    assert not stray, "output callbacks used outside ode_core's row outputs:\n" + \
        "\n".join(stray)
    assert seen == ALLOWED  # the scan finds the one path it allows


def test_the_scan_finds_direct_output_calls():
    source = ("def f(sys, sys_, self, x, u, grid):\n"
              "    a = sys.h(x, u)\n"
              "    b = [sys_.dh_dx(x, u) for x in xs]\n"
              "    c = self.sys.h\n"
              "    d = sys.h_rows(x, u)\n"
              "    return grid.h, self.h\n")
    lines = sorted(line for _, line in _output_callback_uses(ast.parse(source)))
    assert lines == [2, 3, 4, 5]


def test_only_window_tangents_and_flow_and_stm_call_the_stm_block():
    seen, stray = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, line in _calls_to(tree, "flow_and_stm_windows"):
            if (path.stem, function) in TANGENT_CALLERS:
                seen.add((path.stem, function))
            else:
                stray.append(f"{path.name}:{line} in {function}")
    assert not stray, "flow_and_stm_windows called outside window_tangents:\n" + \
        "\n".join(stray)
    assert seen == TANGENT_CALLERS


def test_the_scan_finds_stm_block_calls():
    source = ("def f(sys, wins, xis, u):\n"
              "    a = flow_and_stm_windows(sys, wins, xis, u)\n"
              "    return ode_core.flow_and_stm_windows(sys, wins, xis, u), flow_windows\n")
    assert [line for _, line in _calls_to(ast.parse(source), "flow_and_stm_windows")] \
        == [2, 3]
