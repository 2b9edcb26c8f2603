"""The estimator modules depend on the energy model (``core``) and the trace rows alone,
and leave every input check to ``core``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mrfhcf"
ESTIMATORS = ("hcf", "local_hcf", "baselines", "oracles")


def package_imports(path):
    """The package modules one source file imports from, relative (``.core``) or absolute."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "mrfhcf":
            out.add(node.module)
        elif isinstance(node, ast.Import):
            out.update(a.name for a in node.names if a.name.split(".")[0] == "mrfhcf")
    return out


def test_estimator_modules_import_only_core_and_trace():
    imports = {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}
    for module in ESTIMATORS:
        assert imports[module] <= {".core", ".trace"}, module
    assert ".hcf" in imports["cli"]  # the reader does find the package's own imports


def test_estimator_modules_define_no_input_check():
    # the input contract lives in `core`; an estimator calls its checks
    for module in ESTIMATORS:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        defined = [node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        assert not [name for name in defined if name.startswith("_check")], module


def test_the_import_reader_sees_every_form(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from . import hcf\nfrom ..x import y\nfrom .core import z\n"
                      "import mrfhcf.edges\nfrom mrfhcf.fileio import read_pgm\nimport numpy\n")
    assert package_imports(source) == {".", "..x", ".core", "mrfhcf.edges", "mrfhcf.fileio"}
