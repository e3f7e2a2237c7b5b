import ast
import os
import subprocess
import sys
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


def test_no_subcommand_imports_numpy_ma():
    """Every subcommand, run once in a fresh interpreter, leaves numpy.ma,
    numpy.random and hashlib unimported, the two that print SHA-1 fingerprints
    included.  numpy.ma costs about 1 MB of resident memory (np.unique and
    np.setdiff1d are among the calls that import it); numpy.random costs about
    6 MB and imports hashlib, and hashlib loads OpenSSL (about 3.5 MB)."""
    script = """
import contextlib, io, sys
from dwu.cli import main
d8 = ["--group", "D8", "--grading", "0"]
runs = [
    ["gradings", "--group", "C4xC4"],
    ["partition", *d8, "--surfaces", "T2,RP2,K"],
    ["verify-axioms", *d8],
    ["cohomology", *d8, "--degree", "1"],
    ["cohomology", *d8, "--degree", "2"],
    ["indicators", *d8],
]
def loaded():
    return sorted(
        name for name in sys.modules
        if name.split(".")[:2] in (["numpy", "ma"], ["numpy", "random"]) or name in ("hashlib", "_hashlib")
    )
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(codes, loaded())
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0] []"
