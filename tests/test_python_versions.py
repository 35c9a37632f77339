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

from .conftest import FIXTURES, bundle_bytes, stix_tactic, stix_technique

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


def _ran() -> dict[str, str]:
    """The interpreter found for each version that has one; skips the test if none has."""
    pyenv_root = _pyenv_root()
    found = {version: _interpreter(version, pyenv_root) for version in VERSIONS}
    ran = {version: executable for version, executable in found.items() if executable is not None}
    print(f"ran: {', '.join(f'{v} ({e})' for v, e in ran.items()) or 'none'}; "
          f"skipped: {', '.join(sorted(found.keys() - ran.keys())) or 'none'}")
    if not ran:
        pytest.skip("no python3.10 ... python3.13 on PATH starts")
    return ran


def test_artifacts_are_the_same_bytes_on_every_python(tmp_path):
    ran = _ran()
    for output_format in ("csv", "json"):
        expected = _artifacts(sys.executable, tmp_path / f"self-{output_format}", output_format)
        assert "recurring_pairs." + output_format in expected
        for version, executable in ran.items():
            actual = _artifacts(executable, tmp_path / f"{version}-{output_format}", output_format)
            assert actual == expected, f"python{version} --format {output_format}"


def test_catalog_escapes_are_the_same_bytes_on_every_python(tmp_path):
    """The e2e catalog is plain ASCII with no empty array; this one escapes a quote,
    a backslash and a control character, keeps non-ASCII text and U+2028 raw, and
    lists a technique with no tactics."""
    ran = _ran()
    technique = stix_technique("T1001", 'Exécution "quoted" \\ 中\u2028', ["execution"],
                               citations=[("Vendor é", "https://reports.example/é")])
    technique["external_references"][1]["description"] = 'Analyst "A" \\ bell\x07 tab\t line\u2028 ß, 2021'
    objects = [stix_tactic("TA0002", "Exécution", "execution"), technique, stix_technique("T1002", "Ohne Taktik")]
    bundle = tmp_path / "bundle.json"
    bundle.write_bytes(bundle_bytes(objects))
    catalogs = {}
    for version, executable in {"self": sys.executable, **ran}.items():
        subprocess.run([executable, "-S", "-m", "ttpminer", "ingest", "--bundle", str(bundle),
                        "--output-dir", str(tmp_path / version)],
                       env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, check=True)
        catalogs[version] = (tmp_path / version / "catalog.json").read_bytes()
    expected = catalogs.pop("self")
    for escaped in (b'\\"quoted\\"', b"\\\\", b"\\u0007", b"\\t", "\u2028".encode(), "中".encode(), b'"tactic_ids": []'):
        assert escaped in expected
    for version, catalog in catalogs.items():
        assert catalog == expected, f"python{version}"


# urlsplit checks a bracketed host from CPython 3.11 on; 3.10 took any text there, so
# ttpminer checks it the same way on every version.
@pytest.mark.parametrize("url, problem", [
    ("http://[abc]/x", "'abc' does not appear to be an IPv4 or IPv6 address"),
    ("http://[1.2.3.4]/x", "An IPv4 address cannot be in brackets"),
    ("http://[vz.1]/x", "IPvFuture address is invalid"),
])
def test_a_bad_bracketed_host_exits_1_on_every_python(tmp_path, url, problem):
    ran = _ran()
    technique = stix_technique("T1001", "Payload Execution", ["execution"], citations=[("Vendor", url)])
    bundle = tmp_path / "bundle.json"
    bundle.write_bytes(bundle_bytes([stix_tactic("TA0002", "Execution", "execution"), technique]))
    message = f"{bundle}: {technique['id']} external_references[1]: url {url!r} is not a URL ({problem})"
    for version, executable in {"self": sys.executable, **ran}.items():
        done = subprocess.run(
            [executable, "-S", "-m", "ttpminer", "ingest", "--bundle", str(bundle), "--output-dir", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr.strip()) == (1, f"ERROR ttpminer.cli: {message}"), f"python{version}"
