"""Layout of the package: which modules may import what.

Every file format the pipeline reads or writes goes through the codecs
in `signal_io`, so it alone imports the standard library's format
modules. Every strided window is cut by one framing helper.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import voicehr

PACKAGE = Path(voicehr.__file__).parent
FORMAT_MODULES = {"json", "csv", "wave"}


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules `path` imports, at any depth of its code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_only_signal_io_imports_format_modules(path):
    allowed = FORMAT_MODULES if path.name == "signal_io.py" else set()
    assert imported_modules(path) & FORMAT_MODULES <= allowed


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_frames_come_from_frame_signal(path):
    # `speech_features.frame_signal` cuts every strided window: numpy's
    # `sliding_window_view` costs more than twice as much a call
    assert "sliding_window_view" not in path.read_text(encoding="utf-8")


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
