"""Every module, test and demo uses each name it imports, and the library
reads each of its module-level private names.

No lint tool is a dependency, so both checks are plain `ast` scans: a name
an import binds must be read somewhere in the same file, and a private
(`_x`) name a library module defines at its top level must be read
somewhere in the library. `vipguide/__init__.py` is left out of the first,
since its imports are the package's exports.
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


def module_private_names(tree):
    """(line, name) of each `_x` name bound at the module's top level."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in bound if name[:1] == "_" and name[:2] != "__"]


def read_names(tree):
    """Every name a load reads, bare (`_x`) or as an attribute (`mod._x`)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_no_unread_private_names():
    paths = sorted((ROOT / "src" / "vipguide").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, tree in trees.items()
        for line, name in module_private_names(tree)
        if name not in read
    ]
    assert not unread, "private names the library never reads:\n" + "\n".join(unread)
