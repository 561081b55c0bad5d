"""Every imported name in the package and its tests is used, only the
package's two big-float kernel users import mpmath (mpmath.libmp
included), and the scalar interval tier calls no math transcendental.

A stdlib-ast check: a name bound by an import statement must be read
somewhere else in the same module.  Names listed in the module's __all__
count as used (they are re-exports), and ``from __future__`` imports are
compiler directives, not names.  String annotations are parsed, so a name
used only as ``-> "CVec"`` counts.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "grhdesk").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def _read(tree: ast.Module) -> set[str]:
    """Every name the module loads, string annotations included."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= _read(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _read(tree) | _exported(tree)
    return [f"{path.name}:{line} {name}" for name, line in _imported(tree).items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_check_sees_an_unused_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import math, os\n"
        "from .x import A, B\n"
        "__all__ = ['B']\n"
        "def f(v: 'A') -> float:\n"
        "    return math.pi\n"
    )
    assert unused_imports(src) == ["mod.py:2 os"]


def imports_libmp(path: Path) -> bool:
    """The module imports mpmath.libmp or a name from it, in any form."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("mpmath.libmp") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("mpmath.libmp"):
                return True
            if node.module == "mpmath" and any(a.name == "libmp" for a in node.names):
                return True
    return False


def test_only_the_kernel_modules_import_libmp():
    # interval arithmetic is on doubles; big-float kernels feed the
    # Hurwitz power balls, pi and the unity tables, and nothing else
    src = sorted((ROOT / "src" / "grhdesk").glob("*.py"))
    assert {p.name for p in src if imports_libmp(p)} == {"hurwitz.py", "characters.py"}


@pytest.mark.parametrize(
    "line", ["from mpmath.libmp import mpf_add", "import mpmath.libmp", "from mpmath import libmp, mp"]
)
def test_check_sees_a_libmp_import(tmp_path, line):
    src = tmp_path / "mod.py"
    src.write_text(line + "\n")
    assert imports_libmp(src)
    src.write_text("import mpmath\nfrom mpmath import iv\n")
    assert not imports_libmp(src)


def imports_mpmath(path: Path) -> bool:
    """The module imports mpmath or anything in it, in any form."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module]
        else:
            continue
        if any(n == "mpmath" or n.startswith("mpmath.") for n in names):
            return True
    return False


def test_only_the_kernel_modules_import_mpmath():
    # every other module's transcendentals come from these two modules'
    # balls or from numpy in interval arrays
    src = sorted((ROOT / "src" / "grhdesk").glob("*.py"))
    assert {p.name for p in src if imports_mpmath(p)} == {"hurwitz.py", "characters.py"}


@pytest.mark.parametrize(
    "line",
    ["import mpmath", "from mpmath import iv", "import mpmath.libmp as lm", "def f():\n    import mpmath"],
)
def test_check_sees_an_mpmath_import(tmp_path, line):
    src = tmp_path / "mod.py"
    src.write_text(line + "\n")
    assert imports_mpmath(src)
    src.write_text("import mpmathx\nfrom .mpmath import f\n")
    assert not imports_mpmath(src)


# math's transcendentals: libm's, correctly rounded nowhere, so outside
# any rounding the scalar tier could state
_TRANSCENDENTALS = {
    "exp", "expm1", "exp2", "log", "log1p", "log2", "log10", "pow",
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh",
}


def math_transcendentals(path: Path) -> list[str]:
    """Each math transcendental the module reads, as math.f or imported from math."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr in _TRANSCENDENTALS:
                found.append(f"{node.lineno} math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{node.lineno} {a.name}" for a in node.names if a.name in _TRANSCENDENTALS]
    return found


def test_the_scalar_tier_calls_no_math_transcendental():
    assert math_transcendentals(ROOT / "src" / "grhdesk" / "interval.py") == []


def test_check_sees_a_math_transcendental(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import math\nfrom math import log, sqrt\nx = math.exp(1.0) + math.atan(2.0)\n")
    assert math_transcendentals(src) == ["2 log", "3 math.exp", "3 math.atan"]
    src.write_text("import math\nx = math.sqrt(2.0) + math.nextafter(1.0, 2.0) + math.pi\n")
    assert math_transcendentals(src) == []
