"""Every artifact is the same bytes on each supported CPython, 3.10 to 3.13.

For each version, the first interpreter that starts, of ``python3.X`` on PATH
and then each pyenv install of it (``$(pyenv root)/versions/3.X.*``, which a
pyenv shim for another global version does not reach), runs ``all`` on the e2e
fixture in both output formats as a stdlib-only subprocess (``-S``,
``PYTHONPATH=src``); its output directory must equal, file for file and byte
for byte, that of the interpreter running the tests. Versions with no
interpreter that starts are skipped, and the test prints which ones ran
(``pytest -s``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from .conftest import FIXTURES

SRC = Path(__file__).resolve().parents[1] / "src"
VERSIONS = ("3.10", "3.11", "3.12", "3.13")


def _starts(executable: str | None) -> bool:
    return executable is not None and subprocess.run([executable, "-c", "pass"], capture_output=True).returncode == 0


def _pyenv_root() -> Path | None:
    if "PYENV_ROOT" in os.environ:
        return Path(os.environ["PYENV_ROOT"])
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return None
    done = subprocess.run([pyenv, "root"], capture_output=True, text=True)
    return Path(done.stdout.strip()) if done.returncode == 0 else None


def _interpreter(version: str, pyenv_root: Path | None) -> str | None:
    """The first of ``python{version}`` on PATH and the pyenv installs of ``version`` that starts."""
    installs = sorted(map(str, pyenv_root.glob(f"versions/{version}.*/bin/python3"))) if pyenv_root else []
    return next(filter(_starts, [shutil.which(f"python{version}"), *installs]), None)


def _artifacts(executable: str, out: Path, output_format: str) -> dict[str, bytes]:
    argv = ["-S", "-m", "ttpminer", "all", "--config", FIXTURES / "e2e" / "config.cfg",
            "--format", output_format, "--output-dir", out]
    subprocess.run([executable, *map(str, argv)], env={**os.environ, "PYTHONPATH": str(SRC)},
                   capture_output=True, check=True)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_artifacts_are_the_same_bytes_on_every_python(tmp_path):
    pyenv_root = _pyenv_root()
    found = {version: _interpreter(version, pyenv_root) for version in VERSIONS}
    ran = [version for version, executable in found.items() if executable is not None]
    print(f"ran: {', '.join(f'{v} ({found[v]})' for v in ran) or 'none'}; "
          f"skipped: {', '.join(sorted(found.keys() - ran)) or 'none'}")
    if not ran:
        pytest.skip("no python3.10 ... python3.13 on PATH starts")
    for output_format in ("csv", "json"):
        expected = _artifacts(sys.executable, tmp_path / f"self-{output_format}", output_format)
        assert "recurring_pairs." + output_format in expected
        for version in ran:
            actual = _artifacts(found[version], tmp_path / f"{version}-{output_format}", output_format)
            assert actual == expected, f"python{version} --format {output_format}"
