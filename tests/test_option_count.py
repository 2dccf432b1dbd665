"""The number of settable values in the package may only fall.

A settable value is a defaulted parameter of any function or a field of any
dataclass, counted over the AST of `src/ermbounds/*.py`. A change that adds
one raises `MAX_SETTABLE` here and says in CHANGES.md which two callers need
different values.

A run's Monte Carlo sizes, seed and solver tolerance are written once, where
a run is configured (the CLI's table, `SweepConfig`, `MainTheoremConfig`, a
demo), so no library function gives a parameter of those names a default.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ermbounds"
MAX_SETTABLE = 106
RUN_SETTINGS = {"seed", "trials", "probes", "directions", "draws", "tol"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.arguments):
            count += len(node.defaults) + sum(default is not None for default in node.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def defaulted_run_settings(source: str) -> list[str]:
    """`function(parameter)` for each defaulted parameter named in RUN_SETTINGS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :] + [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            found += [f"{getattr(node, 'name', 'lambda')}({arg.arg})" for arg in defaulted if arg.arg in RUN_SETTINGS]
    return found


def test_counter_counts_defaults_and_fields():
    source = (
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *args, c, d=2, **kw):\n"
        "    return lambda x, y=3: x\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    a: int\n"
        "    b: tuple = field(default_factory=tuple)\n"
        "    def g(self, e=4): ...\n"
        "@dataclass\n"
        "class B:\n"
        "    a: int = 0\n"
        "class C:\n"
        "    a: int = 0\n"
    )
    # b, d, y, e; A.a, A.b, B.a; C is no dataclass
    assert settable_values(source) == 7


def test_settable_values_do_not_grow():
    total = sum(settable_values(path.read_text()) for path in sorted(SRC.glob("*.py")))
    assert total <= MAX_SETTABLE


def test_guard_finds_defaulted_run_settings():
    source = "def f(a, seed, trials=1, *, draws=2, tol):\n    return lambda probes=3, x=4: x\n"
    assert defaulted_run_settings(source) == ["f(trials)", "f(draws)", "lambda(probes)"]


def test_no_library_default_for_run_settings():
    found = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py")) for name in defaulted_run_settings(path.read_text())]
    assert found == []
