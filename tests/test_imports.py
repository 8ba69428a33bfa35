"""Every imported name is used somewhere in the module that imports it, and
importing the package loads no third-party module, nor the process pool or
``hashlib``, which only some calls need.

No linter ships with the project, so this scans the syntax trees of the
package, the tests, the scripts and the benchmark.  Package ``__init__.py``
files are skipped: their imports are the public re-exports.
"""
import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ("src/edgemaps/*.py", "tests/*.py", "scripts/*.py", "perfbench/*.py")


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_no_unused_imports():
    paths = sorted(p for pat in SOURCES for p in ROOT.glob(pat) if p.name != "__init__.py")
    assert paths
    unused = [msg for p in paths for msg in _unused_imports(p)]
    assert unused == []


def _fresh(code: str) -> str:
    """What ``code`` prints in a new interpreter that imports the package
    from this checkout."""
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_package_imports_no_numpy():
    # the package runs on the standard library; numpy is a test dependency only
    assert _fresh("import sys, edgemaps; print('numpy' in sys.modules)") == "False"


def test_package_imports_no_pool_or_openssl():
    # the process pool loads only when a walk hands off branches, and
    # hashlib, which loads OpenSSL, only when a record is digested
    code = (
        "import sys, edgemaps, edgemaps.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures', 'hashlib') if m in sys.modules])"
    )
    assert _fresh(code) == "[]"


def test_a_forking_walk_loads_the_pool_on_demand():
    # fixed K1,2 + exclusive K1,2 on fixed_or_strong K6 hands a root branch
    # to a pool process; the test modules that drive pools import
    # multiprocessing themselves, so only a new interpreter shows when the
    # walk loads it
    code = textwrap.dedent("""
        import json, sys
        from edgemaps.graphs import make_pattern
        from edgemaps.mapping import MappingClass
        from edgemaps.search import AvoidanceSpec, SearchOptions, exists_avoiding

        spec = AvoidanceSpec(
            6,
            MappingClass("fixed_or_strong"),
            (("fixed", make_pattern("K1,2")), ("exclusive", make_pattern("K1,2"))),
        )
        before = "multiprocessing" in sys.modules
        out = exists_avoiding(spec, SearchOptions(workers=2))
        after = "multiprocessing" in sys.modules
        import multiprocessing

        print(json.dumps([before, after, out.as_dict(), len(multiprocessing.active_children())]))
    """)
    before, after, out, children = json.loads(_fresh(code))
    assert not before and after
    assert out["verdict"] == "EXHAUSTED"
    assert out["nodes"] == 12189
    assert out["prunes"] == {"lookahead": 6003, "symmetry": 102}
    assert children == 0


def test_package_exports_match_its_imports():
    # a name deleted from a module but left in __all__, or imported by
    # __init__ and never listed, fails here rather than at a user's import
    import edgemaps

    tree = ast.parse((ROOT / "src/edgemaps/__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert [name for name in edgemaps.__all__ if not hasattr(edgemaps, name)] == []
    assert sorted(imported - set(edgemaps.__all__)) == []
    assert len(set(edgemaps.__all__)) == len(edgemaps.__all__)
