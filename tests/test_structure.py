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

Every argument rule is defined once, in `ode_core.RULES`: no other module
defines a rule table or a number predicate, every literal rule handed to
`require` is one of its names, and `cli._SCHEMA` is the only table of
config defaults.
"""

import ast
from pathlib import Path

from obsmhe import cli
from obsmhe.ode_core import RULES

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


# Argument rules have one definition: the table `ode_core.RULES`, checked
# by `ode_core.require` and, for numbers in lists, `ode_core.is_number`.
# The CLI reads every config field's default and rule from `cli._SCHEMA`.
RULE_NAMES = set(RULES)
CONFIG_KEYS = set(cli._SCHEMA) | {"t_grid", "noise", "solver", "audit"}
NUMBER_TESTS = ("isfinite", "isinf", "isnan", "inf", "float_info")


def _names(node: ast.AST) -> set:
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}


def _string_keys(node: ast.Dict) -> set:
    return {k.value for k in node.keys if isinstance(k, ast.Constant)}


def _rule_tables_and_number_predicates(tree: ast.Module):
    """(kind, line) of every dict with two or more rule names as keys and
    of every function that tests a value both for bool and for being
    finite."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and len(_string_keys(node) & RULE_NAMES) >= 2:
            yield "rule table", node.lineno
        if isinstance(node, ast.FunctionDef) and "bool" in _names(node) \
                and _names(node) & set(NUMBER_TESTS):
            yield f"number predicate {node.name}", node.lineno


def _literal_rules(tree: ast.Module):
    """(rule, line) of every string literal passed as the rule of `require`,
    called directly or handed on as `fn, rule, ...` (as `cli._field` takes
    it)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args = node.args
        if "require" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            rules = args[:1]
        else:
            rules = [b for a, b in zip(args, args[1:]) if getattr(a, "id", None) == "require"]
        for rule in rules:
            if isinstance(rule, ast.Constant) and isinstance(rule.value, str):
                yield rule.value, node.lineno


def test_only_ode_core_defines_argument_rules():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for kind, line in _rule_tables_and_number_predicates(tree):
            found.setdefault(path.stem, []).append(kind)
    assert found == {"ode_core": ["number predicate is_number", "rule table"]}


def test_the_scan_finds_rule_tables_and_number_predicates():
    source = ("RULES = {'positive': 1, 'count': 2}\n"
              "FIELDS = {'count': 'count', 'start': 'number'}\n"
              "def _is_number(v):\n"
              "    return not isinstance(v, bool) and math.isfinite(v)\n"
              "def _fmt(x):\n"
              "    return 'true' if isinstance(x, bool) else repr(x)\n")
    assert sorted(line for _, line in
                  _rule_tables_and_number_predicates(ast.parse(source))) == [1, 3]


def test_every_literal_rule_is_a_rule_of_the_table():
    rules = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rules += [(f"{path.name}:{line}", rule) for rule, line in _literal_rules(tree)]
    assert [r for r in rules if r[1] not in RULE_NAMES] == []
    assert {rule for _, rule in rules} == RULE_NAMES  # the scan finds every rule
    # The schema's rules are rule names or tuples of the values allowed.
    for path, (_, rule) in cli._SCHEMA.items():
        assert isinstance(rule, tuple) or rule in RULE_NAMES, path


def test_the_scan_finds_literal_rules():
    source = ("require('positive', R=R)\n"
              "ode_core.require('count', n=n)\n"
              "_field('audit.R', require, 'whole', seed=1)\n"
              "require(MODES, mode=mode)\n")
    assert list(_literal_rules(ast.parse(source))) == \
        [("positive", 1), ("count", 2), ("whole", 3)]


def test_the_schema_is_the_only_table_of_config_defaults():
    for name in ("_DEFAULTS", "_NUMERIC_FIELDS", "_RULES", "_is_number", "_require_number"):
        assert not hasattr(cli, name), name
    tables = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) and _string_keys(node) & CONFIG_KEYS:
                tables.append((path.stem, node.lineno))
    schema = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    line = next(node.value.lineno for node in schema.body if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "_SCHEMA")
    assert tables == [("cli", line)]
