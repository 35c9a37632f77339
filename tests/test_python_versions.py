"""Every artifact is the same bytes on each supported CPython, 3.10 to 3.13.

Each ``python3.X`` on PATH that starts runs ``all`` on the e2e fixture in both
output formats as a stdlib-only subprocess (``-S``, ``PYTHONPATH=src``); its
output directory must equal, file for file and byte for byte, that of the
interpreter running the tests. Interpreters that are absent or do not start
are skipped, and the test prints which ones ran (``pytest -s``).
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


def _artifacts(executable: str, out: Path, output_format: str) -> dict[str, bytes]:
    argv = ["-S", "-m", "ttpminer", "all", "--config", FIXTURES / "e2e" / "config.cfg",
            "--format", output_format, "--output-dir", out]
    subprocess.run([executable, *map(str, argv)], env={**os.environ, "PYTHONPATH": str(SRC)},
                   capture_output=True, check=True)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_artifacts_are_the_same_bytes_on_every_python(tmp_path):
    found = {version: shutil.which(f"python{version}") for version in VERSIONS}
    ran = [version for version, executable in found.items() if _starts(executable)]
    print(f"ran: {', '.join(ran) or 'none'}; skipped: {', '.join(sorted(found.keys() - ran)) or 'none'}")
    if not ran:
        pytest.skip("no python3.10 ... python3.13 on PATH starts")
    for output_format in ("csv", "json"):
        expected = _artifacts(sys.executable, tmp_path / f"self-{output_format}", output_format)
        assert "recurring_pairs." + output_format in expected
        for version in ran:
            actual = _artifacts(found[version], tmp_path / f"{version}-{output_format}", output_format)
            assert actual == expected, f"python{version} --format {output_format}"
