"""Every module, test and demo uses each name it imports.

No lint tool is a dependency, so the check is a plain `ast` scan: a name an
import binds must be read somewhere in the same file. `vipguide/__init__.py`
is left out, since its imports are the package's exports.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def scanned_files():
    src = [p for p in sorted((ROOT / "src" / "vipguide").glob("*.py")) if p.name != "__init__.py"]
    return src + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(path):
    """(line, name) of each name `path` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_no_unused_imports():
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in scanned_files()
        for line, name in unused_imports(path)
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)
