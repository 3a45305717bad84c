"""Print the size of the program's surface: lines, parameters, fields and
config keys.

    python3 tools/surface.py

Run from anywhere; it reads this checkout's ``src/onecentre`` with ``ast``
and imports nothing from it.  The report is deterministic:

* the line count of each module (as ``wc -l`` counts them) and their total;
* the parameters of the module-level functions of each module, in total and
  those with a default, and beside them the methods of its classes with
  their parameters (``self`` and ``cls`` not counted), so that moving a
  function into a method cannot shrink the surface;
* the fields of each dataclass, by class;
* the config keys of each CLI subcommand (the keys of its defaults and
  its optional keys in ``cli.COMMANDS``).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "onecentre"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _parameters(fn: ast.FunctionDef) -> tuple[int, int]:
    """(parameters, parameters with a default) of one function, without a
    leading ``self`` or ``cls``."""
    a = fn.args
    total = len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs) + \
        (a.vararg is not None) + (a.kwarg is not None)
    positional = [*a.posonlyargs, *a.args]
    if positional and positional[0].arg in ("self", "cls"):
        total -= 1
    defaults = len(a.defaults) + sum(d is not None for d in a.kw_defaults)
    return total, defaults


def _config_keys(tree: ast.Module) -> list[tuple[str, list[str]]]:
    """(subcommand, config keys) for each entry of cli's `COMMANDS` literal,
    whose values are (function, claim, defaults, optional keys)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "COMMANDS":
            return [(name.value, [k.value for k in entry.elts[2].keys] +
                     [e.value for e in entry.elts[3].elts])
                    for name, entry in zip(node.value.keys, node.value.values)]
    return []


def main() -> None:
    lines = params = with_default = fields = methods = method_params = 0
    print("module lines, module-level function parameters (with defaults), "
          "methods and their parameters:")
    rows, classes, commands = [], [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        n_lines = text.count("\n")
        p = d = m = mp = 0
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                np_, nd = _parameters(node)
                p, d = p + np_, d + nd
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        m, mp = m + 1, mp + _parameters(fn)[0]
                if _is_dataclass(node):
                    names = [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
                    classes.append((f"{path.stem}.{node.name}", names))
        if path.name == "cli.py":
            commands = _config_keys(tree)
        rows.append((path.name, n_lines, p, d, m, mp))
        lines, params, with_default = lines + n_lines, params + p, with_default + d
        methods, method_params = methods + m, method_params + mp
    for name, n_lines, p, d, m, mp in rows:
        print(f"  {name:<16} {n_lines:>5} lines {p:>4} parameters ({d}) "
              f"{m:>3} methods {mp:>3} parameters")
    print(f"  {'total':<16} {lines:>5} lines {params:>4} parameters ({with_default}) "
          f"{methods:>3} methods {method_params:>3} parameters")
    print("dataclass fields:")
    for name, names in classes:
        fields += len(names)
        print(f"  {name} ({len(names)}): {', '.join(names)}")
    print(f"  total {fields} fields in {len(classes)} dataclasses")
    print("config keys:")
    for name, keys in commands:
        print(f"  {name} ({len(keys)}): {', '.join(keys)}")
    print(f"  total {sum(len(k) for _, k in commands)} keys in {len(commands)} subcommands")


if __name__ == "__main__":
    main()
