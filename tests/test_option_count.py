"""The number of settable values in the package may only fall.

A settable value is a defaulted parameter of any function or a field of any
dataclass, counted over the AST of `src/ermbounds/*.py`. A change that adds
one raises `MAX_SETTABLE` here and says in CHANGES.md which two callers need
different values.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ermbounds"
MAX_SETTABLE = 145


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
