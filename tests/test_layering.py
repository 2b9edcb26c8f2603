"""The estimator modules depend on the energy model (``core``) and the trace alone,
every module leaves its input checks to ``core``, only ``core`` knows how a compiled field
encodes table rows and energy terms, only ``trace`` builds trace rows, the CLI restates no
library default, and one function opens every file the package writes as text."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mrfhcf"
ESTIMATORS = ("hcf", "local_hcf", "baselines", "oracles")
PARAMETER_CLASSES = {"edges": ("EdgeModel", "EdgePotentials"),
                     "baselines": ("AnnealSchedule", "MpmParams")}


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
    # the input contract lives in `core`; every other module calls its checks
    modules = [path for path in PACKAGE.glob("*.py") if path.stem != "core"]
    assert {"cli", "edges", "fileio", *ESTIMATORS} <= {path.stem for path in modules}
    for path in modules:
        tree = ast.parse(path.read_text())
        defined = [node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        assert not [name for name in defined if name.startswith("_check")], path.stem


# the compiled field's tables and term layout, read as attributes, and the row encoding
ENCODED = {"tables", "cliques_at", "num_cliques"}
ROW_ENCODER = "_table_rows"


def encoding_uses(tree):
    """The ``ENCODED`` attributes one module reads, and ``ROW_ENCODER`` if it names it."""
    attrs, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, (ast.Name, ast.alias)):
            names.add(getattr(node, "id", getattr(node, "name", None)))
    return attrs & (ENCODED | {ROW_ENCODER}) | names & {ROW_ENCODER}


def test_only_core_reads_the_compiled_encoding():
    uses = {path.stem: encoding_uses(ast.parse(path.read_text()))
            for path in PACKAGE.glob("*.py")}
    assert ENCODED <= uses["core"]  # the reader does find them
    assert {module: found for module, found in uses.items() if found and module != "core"} == {}


def test_the_encoding_reader_sees_every_form():
    tree = ast.parse("from .core import _table_rows as rows\n"
                     "def f(comp):\n    return comp.tables, g(comp).cliques_at\n"
                     "x = field.compiled.num_cliques\n")
    assert encoding_uses(tree) == ENCODED | {ROW_ENCODER}
    assert encoding_uses(ast.parse("core._table_rows(comp, labs)")) == {ROW_ENCODER}
    assert encoding_uses(ast.parse("'comp.tables' if num_tables else tables")) == set()


def row_builders(tree):
    """The lines where one module names ``TraceRow`` in code, and those that import it."""
    named, imported = [], []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == "TraceRow"
                or isinstance(node, ast.Attribute) and node.attr == "TraceRow"):
            named.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and "TraceRow" in {a.name for a in node.names}:
            imported.append(node.lineno)
    return sorted(named), sorted(imported)


def test_only_trace_builds_trace_rows():
    # one row schema: every other module writes a RunTrace's columns, and the
    # package only re-exports the row type
    found = {path.stem: row_builders(ast.parse(path.read_text()))
             for path in PACKAGE.glob("*.py")}
    assert found["trace"][0] and found["__init__"][1]  # the reader does find them
    assert {module: named for module, (named, _) in found.items()
            if named and module != "trace"} == {}
    assert {module: imported for module, (_, imported) in found.items()
            if imported and module != "__init__"} == {}


def test_the_row_reader_sees_every_form():
    tree = ast.parse("from .trace import RunTrace, TraceRow as Row\n"
                     "rows = [TraceRow(0, 0.0, 0, 0)]\n"
                     "more = map(trace.TraceRow._make, pairs)\n"
                     "text = 'TraceRow' + row.TraceRows\n")
    assert row_builders(tree) == ([2, 3], [1])


def openers(tree, where=None):
    """The enclosing function (None at module level) of each ``open`` or ``write_text`` call."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from openers(node, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) in ("open", "write_text"):
                yield where
        yield from openers(node, where)


def test_only_write_lines_opens_a_file():
    # the plain-newline rule for text files lives in one writer
    opened = [(path.stem, where) for path in sorted(PACKAGE.glob("*.py"))
              for where in openers(ast.parse(path.read_text()))]
    assert opened == [("fileio", "_write_lines")]


def test_the_opener_reader_sees_every_form():
    tree = ast.parse("open('a')\n"
                     "def f():\n    with io.open('b') as g:\n        pass\n"
                     "class C:\n    def m(self):\n        def inner():\n"
                     "            Path('c').write_text(str(open('d')))\n"
                     "def h(path):\n    return path.read_text(), reopen(path)\n")
    assert list(openers(tree)) == [None, "f", "inner", "inner"]


def class_defaults(module, name):
    """{field: default expression} of one class's annotated assignments."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    cls = next(node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == name)
    return {node.target.id: node.value for node in cls.body if isinstance(node, ast.AnnAssign)}


def test_run_config_names_the_library_defaults():
    # a shared setting's default is read from the class that owns it, never restated
    run_config = class_defaults("cli", "RunConfig")
    shared = []
    for module, classes in PARAMETER_CLASSES.items():
        for cls in classes:
            for name in class_defaults(module, cls).keys() & run_config.keys():
                default = run_config[name]
                assert (isinstance(default, ast.Attribute) and default.attr == name
                        and isinstance(default.value, ast.Name)
                        and default.value.id == cls), f"RunConfig.{name}"
                shared.append(name)
    assert len(shared) == 12


def test_the_import_reader_sees_every_form(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from . import hcf\nfrom ..x import y\nfrom .core import z\n"
                      "import mrfhcf.edges\nfrom mrfhcf.fileio import read_pgm\nimport numpy\n")
    assert package_imports(source) == {".", "..x", ".core", "mrfhcf.edges", "mrfhcf.fileio"}
