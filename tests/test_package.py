import ast
import subprocess
import sys
from pathlib import Path

import szegolab


def undeclared_exports(package_dir):
    """Names in a module's __all__ that the module does not bind at its top
    level by a def, a class or an assignment (an import only re-exports a
    name declared elsewhere), as "module:name"."""
    found = []
    for path in sorted(Path(package_dir).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound, exported = set(), []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = {n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)}
                bound |= names
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
        found += [f"{path.stem}:{name}" for name in exported
                  if name not in bound]
    return found


def test_each_public_name_is_declared_once(tmp_path):
    """Every module's __all__ lists only names the module itself declares,
    so a public name is imported from the one module that defines it; the
    check finds a planted re-export."""
    assert undeclared_exports(Path(szegolab.__file__).parent) == []
    (tmp_path / "planted.py").write_text(
        "from .quadrature import integrate_finite\n"
        "LIMIT = 1\n"
        "__all__ = ['LIMIT', 'integrate_finite']\n", encoding="utf-8")
    assert undeclared_exports(tmp_path) == ["planted:integrate_finite"]


def cached_functions(package_dir):
    """Functions of the package that functools' cache or lru_cache
    decorates, by any import of it, as "module.name"."""
    found = []
    for path in sorted(Path(package_dir).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(dec, "attr", getattr(dec, "id", None)) in (
                        "cache", "lru_cache"):
                    found.append(f"{path.stem}.{node.name}")
    return found


def test_only_four_functions_keep_results(tmp_path):
    """Four functions keep their results: the CLI's parser, the deep zero's
    cut, the probe's node rules and quadrature's kept Fourier seeds, which
    hold each seed's last result too, so no other module keeps quadrature
    state.  The check finds planted decorators."""
    assert cached_functions(Path(szegolab.__file__).parent) == [
        "cli._parser", "deep_zero._h_cut", "probe._leggauss",
        "quadrature._seed_samples"]
    (tmp_path / "planted.py").write_text(
        "import functools\n"
        "from functools import lru_cache\n\n\n"
        "@lru_cache(maxsize=4)\n"
        "def kept(j, s_bits, tol):\n"
        "    return s_bits\n\n\n"
        "@functools.cache\n"
        "def table(n):\n"
        "    return n\n\n\n"
        "def plain(n):\n"
        "    return n\n", encoding="utf-8")
    assert cached_functions(tmp_path) == ["planted.kept", "planted.table"]


def test_src_keeps_its_line_budget():
    """The package's modules hold at most 2250 lines together (ROADMAP
    item 6): a change that adds lines pays for them inside the budget."""
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in Path(szegolab.__file__).parent.glob("*.py"))
    assert lines <= 2250, (f"src/szegolab/*.py holds {lines} lines, over "
                           f"the 2250-line budget of ROADMAP item 6")


def test_build_ships_the_stored_gauss_legendre_rules(tmp_path):
    """setuptools' build_py, offline, puts the probe's node rules in the
    built package, and egg_info reads the version from the one place it is
    declared, szegolab.__version__; egg_info and the build are kept in
    tmp_path."""
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()",
         "egg_info", "--egg-base", str(tmp_path),
         "build_py", "--build-lib", str(tmp_path / "lib")],
        cwd=root, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    built = tmp_path / "lib" / "szegolab" / "gauss_legendre.txt"
    assert built.read_bytes() == (
        Path(szegolab.__file__).with_name("gauss_legendre.txt").read_bytes())
    pkg_info = (tmp_path / "szegolab.egg-info" / "PKG-INFO").read_text(
        encoding="utf-8").splitlines()
    assert f"Version: {szegolab.__version__}" in pkg_info
