"""Every imported name in the package and its tests is used, every
function and class the package defines is named somewhere else, only the
exact kernel (balls.py) imports mpmath (mpmath.libmp included) and it
imports nothing from the package but errors, the only private names one
package module imports from another are a known few, the scalar cells'
module (interval.py) calls no math transcendental, and only ivec.py makes
interval cells.

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
    # exact kernel's balls, and nothing else
    src = sorted((ROOT / "src" / "grhdesk").glob("*.py"))
    assert {p.name for p in src if imports_libmp(p)} == {"balls.py"}


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
    # every other module's transcendentals come from the exact kernel's
    # balls or from numpy in interval arrays
    src = sorted((ROOT / "src" / "grhdesk").glob("*.py"))
    assert {p.name for p in src if imports_mpmath(p)} == {"balls.py"}


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


def package_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each name the module imports from the grhdesk
    package, relatively or by its full name; a whole module imported is
    (module, "")."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(a.name.split(".", 1)[1], "") for a in node.names if a.name.startswith("grhdesk.")]
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("grhdesk")):
            module = (node.module or "").removeprefix("grhdesk").lstrip(".")
            found += [(module or a.name, a.name if module else "") for a in node.names]
    return found


def test_the_exact_kernel_imports_only_errors_from_the_package():
    # balls is the bottom of the package: hurwitz, characters, dft, ivec
    # and the samplers build on it, and it wraps nothing in their types
    assert {module for module, _ in package_imports(ROOT / "src" / "grhdesk" / "balls.py")} == {"errors"}


def test_few_private_names_cross_package_modules():
    # names other modules import are the module's interface and carry no
    # leading underscore; these few are the samplers' shared internals
    src = sorted((ROOT / "src" / "grhdesk").glob("*.py"))
    private = {name for p in src for _, name in package_imports(p) if name.startswith("_")}
    assert private <= {"_build_block", "_truncation", "_em_rows", "_ordinates", "_ratio"}


def test_check_sees_package_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import math\n"
        "import grhdesk.hurwitz\n"
        "from . import ivec\n"
        "from .errors import DomainError\n"
        "from grhdesk.interval import _up\n"
        "from numpy import array\n"
    )
    assert package_imports(src) == [("hurwitz", ""), ("ivec", ""), ("errors", "DomainError"), ("interval", "_up")]


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


# ---------------------------------------------------------------------------
# dead definitions

SOURCES = FILES + sorted((ROOT / "perfbench").glob("*.py"))


def _mentions(tree: ast.Module) -> list[tuple[str, int]]:
    """Each name the module mentions, with its line: loaded or bound names,
    attributes, imported names, and strings that are identifiers (getattr,
    monkeypatch.setattr and perfbench's TRACED table name functions so)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(alias.name.split(".")[-1], node.lineno) for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.append((node.value, node.lineno))
    return out


def dead_definitions(package: list[Path], sources: list[Path]) -> list[str]:
    """Each function and class defined in package (methods and nested
    ones included, dunder methods exempt) that no file of sources names
    outside its own definition."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in {*package, *sources}}
    mentions: dict[str, list[tuple[Path, int]]] = {}
    for path in sources:
        for name, line in _mentions(trees[path]):
            mentions.setdefault(name, []).append((path, line))
    dead = []
    for path in package:
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(other != path or line not in own for other, line in mentions.get(node.name, [])):
                dead.append((path.name, node.lineno, node.name))
    return [f"{name}:{line} {what}" for name, line, what in sorted(dead)]


def test_every_package_definition_is_named_elsewhere():
    package = sorted((ROOT / "src" / "grhdesk").glob("*.py"))
    assert dead_definitions(package, SOURCES) == []


def test_check_sees_a_dead_definition(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "class A:\n"
        "    def __init__(self):\n"
        "        self.x = self.used()\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def dead(self):\n"
        "        return self.dead()\n"
        "def run(name):\n"
        "    return getattr(A(), name)\n"
        "def unused():\n"
        "    pass\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from mod import run\nrun('run')\n")
    assert dead_definitions([src], [src, user]) == ["mod.py:6 dead", "mod.py:10 unused"]


# ---------------------------------------------------------------------------
# interval cells


def cell_constructions(path: Path) -> list[str]:
    """Each call of RealInterval or ComplexBox in the module, by name or attribute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in ("RealInterval", "ComplexBox"):
                found.append(f"{node.lineno} {name}")
    return found


def test_only_ivec_makes_interval_cells():
    # a cell is one read-only element of an IVec or CVec: every enclosure
    # the package computes is an array, and only indexing one makes a cell
    src = sorted((ROOT / "src" / "grhdesk").glob("*.py"))
    assert {p.name for p in src if cell_constructions(p)} == {"ivec.py"}


def test_check_sees_a_cell_construction(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from .interval import ComplexBox, RealInterval\n"
        "from . import interval\n"
        "def f(x: RealInterval) -> ComplexBox:\n"
        "    return ComplexBox(RealInterval(1.0, 2.0), interval.RealInterval(0.0, 0.0))\n"
    )
    assert cell_constructions(src) == ["4 ComplexBox", "4 RealInterval", "4 RealInterval"]
