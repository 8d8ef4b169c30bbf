"""Layout of the package: which modules may import what, and what is used.

Every file format the pipeline reads or writes goes through the codecs
in `signal_io`, so it alone imports the standard library's format
modules, and it alone writes files: its one opener writes over an
existing file's bytes instead of truncating it first. It alone spells a
take's file stem. No module imports scipy, so every verb starts without
loading it. Every strided window is
cut by one framing helper. Two rules stand in for a linter: a module
uses every name it imports, and every name a module defines at its top
level is referenced in the source, the tests or the benchmark. A third asks that every error class is raised in the
package itself.
"""

import ast
import functools
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

import voicehr
from voicehr import errors

PACKAGE = Path(voicehr.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
FORMAT_MODULES = {"json", "csv", "wave"}
# the trees whose code may reference a name of the package
REFERENCING = [PACKAGE.parent, PACKAGE.parents[1] / "tests", PACKAGE.parents[1] / "perfbench"]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules `path` imports, at any depth of its code."""
    names = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_signal_io_imports_format_modules(path):
    allowed = FORMAT_MODULES if path.name == "signal_io.py" else set()
    assert imported_modules(path) & FORMAT_MODULES <= allowed


# Calls counted as file writes whatever their arguments: these two functions
# (in any mode), and these methods of any object (`Path.write_text`, `np.savetxt`)
WRITER_FUNCTIONS = {"wave.open", "os.open"}
WRITER_METHODS = {"write_text", "write_bytes", "savetxt"}


def file_writes(path: Path) -> list[str]:
    """The calls in `path` that can write a file, as `line: call`.

    A builtin `open` counts unless its mode is a constant without "w",
    "a", "x" or "+".
    """
    found = []
    for node in ast.walk(parse(path)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
            if isinstance(mode, ast.Constant) and not set(str(mode.value)) & set("wax+"):
                continue
        elif not (isinstance(func, ast.Attribute) and (
                func.attr in WRITER_METHODS or ast.unparse(func) in WRITER_FUNCTIONS)):
            continue
        found.append(f"{node.lineno}: {ast.unparse(func)}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_signal_io_writes_files(path):
    if path.name == "signal_io.py":
        # the rule sees the writes that are there
        assert file_writes(path)
    else:
        assert file_writes(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_frames_come_from_frame_signal(path):
    # `speech_features.frame_signal` cuts every strided window: numpy's
    # `sliding_window_view` costs more than twice as much a call
    assert "sliding_window_view" not in path.read_text(encoding="utf-8")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_signal_io_formats_a_take_stem(path):
    # `signal_io.take_stem` spells `<subject>_<emotion>_<take>` for the
    # writers, the readers and the errors: a three-digit field anywhere
    # else would be a second spelling
    if path.name == "signal_io.py":
        # the rule sees the one that is there
        assert "03d}" in path.read_text(encoding="utf-8")
    else:
        assert "03d" not in path.read_text(encoding="utf-8")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_scipy(path):
    # the package needs numpy alone; the tests use scipy as an oracle
    assert "scipy" not in imported_modules(path)


def global_reads(table: symtable.SymbolTable) -> set[str]:
    """Names that the scope `table`, or a scope inside it, reads as a module global."""
    names = {symbol.get_name() for symbol in table.get_symbols()
             if symbol.is_referenced() and (table.get_type() == "module" or symbol.is_global())}
    for child in table.get_children():
        names |= global_reads(child)
    return names


def annotation_names(tree: ast.Module) -> set[str]:
    """Names inside annotations, which `from __future__ import annotations` hides from symtable."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    return {node.id for annotation in annotations if annotation is not None
            for node in ast.walk(annotation) if isinstance(node, ast.Name)}


def unused_imports(table: symtable.SymbolTable, used_globals: set[str]) -> set[str]:
    """Names imported in `table` or a scope inside it that nothing reads.

    A module-level import is read when some scope reads its name as a
    global, so a local of the same name elsewhere does not count; an
    import inside a function, when that function reads it.
    """
    names = set()
    for symbol in table.get_symbols():
        name = symbol.get_name()
        used = name in used_globals if table.get_type() == "module" else symbol.is_referenced()
        if symbol.is_imported() and not used:
            names.add(name)
    for child in table.get_children():
        names |= unused_imports(child, used_globals)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    table = symtable.symtable(source, str(path), "exec")
    future = {alias.name for node in tree.body
              if isinstance(node, ast.ImportFrom) and node.module == "__future__"
              for alias in node.names}
    used = global_reads(table) | annotation_names(tree) | future
    assert sorted(unused_imports(table, used)) == []


def top_level_names(tree: ast.Module) -> set[str]:
    """The functions, classes and constants a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


@functools.cache
def referenced_names() -> frozenset[str]:
    """Every name loaded, read as an attribute or imported anywhere in REFERENCING."""
    names = set()
    for path in (path for root in REFERENCING for path in root.rglob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    return frozenset(names)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_top_level_name_is_referenced(path):
    assert sorted(top_level_names(parse(path)) - referenced_names()) == []


def test_signal_io_is_where_the_formats_are():
    assert imported_modules(PACKAGE / "signal_io.py") >= FORMAT_MODULES


def test_package_root_imports_no_module():
    # a bare `import voicehr`, in a fresh interpreter, loads no submodule,
    # and so neither numpy nor scipy
    code = ("import sys, voicehr; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('numpy', 'scipy') or m.startswith('voicehr.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent).stdout
    assert out == "[]\n"


def test_report_side_loads_no_front_end():
    # the config, the models, the classifiers and the report, in a fresh
    # interpreter, load neither scipy nor a module that reads signals
    front_end = ("voicehr.ecg_hr", "voicehr.speech_features", "voicehr.extract", "voicehr.synth")
    code = ("import sys, voicehr.config, voicehr.regression, voicehr.classify, voicehr.pipeline;"
            " print(sorted(m for m in sys.modules"
            f" if m.split('.')[0] == 'scipy' or m in {front_end}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent).stdout
    assert out == "[]\n"


def test_cli_loads_no_scipy():
    # every verb, in a fresh interpreter: scipy alone would add about 1 s
    # and 70 MB to each start
    code = ("import sys, voicehr.cli;"
            " print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent).stdout
    assert out == "[]\n"


def test_detector_loads_no_masked_arrays():
    # np.unique loads numpy.ma on its first call: 10-17 ms and 1.3 MB in
    # every process that extracts a take
    code = ("import sys, numpy as np; from voicehr.ecg_hr import detect_r_peaks;"
            " from voicehr.signal_io import EcgRecord;"
            " before = 'numpy.ma' in sys.modules; x = np.zeros(5000); x[200::400] = 1.0;"
            " peaks = detect_r_peaks(EcgRecord(x, 500.0));"
            " print(before, 'numpy.ma' in sys.modules, peaks.size)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=PACKAGE.parent).stdout
    assert out == "False False 12\n"


def raised_names() -> set[str]:
    """The names that a `raise` statement in the package raises, called or bare."""
    names = set()
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(raised, ast.Name):
                    names.add(raised.id)
    return names


def test_every_error_class_is_raised():
    # the referenced rule also counts the tests, so an error class that
    # only a test names would pass it
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.VoicehrError)}
    assert sorted(classes - {"VoicehrError"} - raised_names()) == []
