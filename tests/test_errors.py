"""Every error the package raises is a VipGuideError: no `raise` in its
source names a built-in exception class."""
import ast
import builtins
import pathlib

import vipguide

PACKAGE_DIR = pathlib.Path(vipguide.__file__).parent
BUILTIN_EXCEPTIONS = {
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def raised_names(source: str):
    """(line, class name) of each `raise X` or `raise X(...)` in `source`."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name):
            yield node.lineno, exc.id
        elif isinstance(exc, ast.Attribute):
            yield node.lineno, exc.attr


def test_scanner_sees_builtin_raises():
    source = "def f(e):\n    raise ValueError('x')\n    raise errors.ConfigError\n    raise\n"
    assert list(raised_names(source)) == [(2, "ValueError"), (3, "ConfigError")]


def test_package_raises_no_builtin_exception():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) > 10
    offenders = [
        f"{path.name}:{line} raises {name}"
        for path in paths
        for line, name in raised_names(path.read_text(encoding="utf-8"))
        if name in BUILTIN_EXCEPTIONS
    ]
    assert offenders == []
