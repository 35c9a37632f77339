"""``scripts/mutants.py`` stopped by SIGTERM leaves no pytest run and no temporary tree behind."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads the process table in /proc")


def process_table() -> dict[int, tuple[str, int, int]]:
    """pid -> (state, parent pid, session id) of each process still listed."""
    table = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:  # it ended meanwhile
                continue
            state, parent, _, session = stat[stat.rindex(")") + 2:].split()[:4]
            table[int(entry.name)] = (state, int(parent), int(session))
    return table


def test_sigterm_kills_the_pytest_session_and_removes_the_tree(tmp_path):
    script = subprocess.Popen([sys.executable, ROOT / "scripts" / "mutants.py", "artifacts"],
                              env={**os.environ, "TMPDIR": str(tmp_path)},
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (children := [pid for pid, (_, parent, _) in process_table().items() if parent == script.pid]):
            assert script.poll() is None and time.monotonic() < deadline, "mutants.py started no pytest run"
            time.sleep(0.02)
        (pytest_run,) = children
        assert list(tmp_path.glob("ttpminer-mutants-*"))
        script.send_signal(signal.SIGTERM)
        assert script.wait(60) == 128 + signal.SIGTERM
    finally:
        script.kill()
        script.wait()
    assert list(tmp_path.glob("ttpminer-mutants-*")) == []
    # the pytest run leads its own session; a zombie has ended and only awaits its reaper
    assert [pid for pid, (state, _, session) in process_table().items() if session == pytest_run and state != "Z"] == []
