import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "dwu").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(path: Path) -> list[str]:
    """Names that an import binds in the module and that nothing reads: not a
    Name load, and not a string of __all__.  An import line marked
    `# noqa: F401` is exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound[alias.asname or alias.name.partition(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in bound.items() if name not in read]


def test_every_imported_name_is_read():
    assert len(MODULES) > 20
    assert [entry for path in MODULES for entry in unused_imports(path)] == []
