#!/usr/bin/env python3
"""First-order mutation run: how many one-token faults do a module's tests catch?

Each mutant changes one place in one module of ``src/ttpminer``:

- a comparison to its boundary or negated partner (``<`` ``<=``, ``>`` ``>=``,
  ``==`` ``!=``, ``in`` ``not in``, ``is`` ``is not``);
- an arithmetic operator (``+`` ``-``, ``*`` ``/``, ``//`` → ``/``, ``%`` → ``//``,
  ``**`` → ``*``, ``<<`` ``>>``, ``&`` ``|``, ``^`` → ``|``), augmented ones too;
- ``and`` and ``or`` to each other;
- an integer literal ``n`` to ``n + 1``;
- ``not x`` to ``not not x``.

Each mutant is written into a temporary copy of ``src/``, ``tests/``,
``scripts/``, ``pyproject.toml`` and ``README.md``, never into the tree, and
``tests/test_<module>.py`` runs there with ``-x --hypothesis-seed=0``. A run
that fails or passes ``TIMEOUT`` seconds kills the mutant; a passing one lets
it survive. A mutant is named ``<module>.py:<line>:<col> <from> -> <to>``, at
the operand right of the operator (the literal itself, the operand of
``not``). Equivalent mutants, which no test can kill, are listed by that name
in ``scripts/mutants_equivalent.txt``, each followed by ``# <reason>``; they
are left out of the score.

    python3 scripts/mutants.py rule_miner [prevalence ...]

A pass over every module takes about 35 minutes on 2 CPUs, so tier-1 does not run it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENTS = ROOT / "scripts" / "mutants_equivalent.txt"
TIMEOUT = 180  # seconds before a mutant's run counts as killed

COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
           ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Div,
              ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
              ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}


class Site(NamedTuple):
    at: ast.AST  # the node whose position names the mutant
    change: str
    apply: Callable[[], None]


def sites(tree: ast.AST) -> list[Site]:
    """Every mutation of ``tree``, in ``ast.walk`` order; ``apply`` edits the tree in place."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                swap = COMPARE[type(op)]
                found.append(Site(node.comparators[i], f"{type(op).__name__} -> {swap.__name__}",
                                  partial(node.ops.__setitem__, i, swap())))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITHMETIC:
            swap = ARITHMETIC[type(node.op)]
            right = node.right if isinstance(node, ast.BinOp) else node.value
            found.append(Site(right, f"{type(node.op).__name__} -> {swap.__name__}",
                              partial(setattr, node, "op", swap())))
        elif isinstance(node, ast.BoolOp):
            swap = BOOLEAN[type(node.op)]
            found.append(Site(node.values[1], f"{type(node.op).__name__} -> {swap.__name__}",
                              partial(setattr, node, "op", swap())))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append(Site(node, f"{node.value} -> {node.value + 1}",
                              partial(setattr, node, "value", node.value + 1)))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append(Site(node.operand, "not -> not not",
                              partial(setattr, node, "operand", ast.UnaryOp(ast.Not(), node.operand))))
    return found


def run_tests(workdir: Path, tests: str) -> str:
    """'passed', 'failed' or 'timeout' for one pytest run in ``workdir``."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", tests]
    # A session of its own, so a timeout also stops the ttpminer processes the tests start.
    with subprocess.Popen(command, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          start_new_session=True) as process:
        try:
            return "passed" if process.wait(TIMEOUT) == 0 else "failed"
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            return "timeout"


def mutate_module(workdir: Path, module: str, equivalent: set[str]) -> None:
    tests = f"tests/test_{module}.py"
    path = workdir / "src" / "ttpminer" / f"{module}.py"
    source = path.read_text()
    lines = source.splitlines()
    if run_tests(workdir, tests) != "passed":
        sys.exit(f"{module}: the tests fail on the unmutated module; fix that first")
    outcomes, equivalents = {"passed": 0, "failed": 0, "timeout": 0}, 0
    for index in range(len(sites(ast.parse(source)))):
        tree = ast.parse(source)
        site = sites(tree)[index]
        name = f"{module}.py:{site.at.lineno}:{site.at.col_offset} {site.change}"
        if name in equivalent:
            equivalents += 1
            continue
        site.apply()
        path.write_text(ast.unparse(tree))
        outcome = run_tests(workdir, tests)
        outcomes[outcome] += 1
        if outcome == "passed":
            print(f"survived {name}    {lines[site.at.lineno - 1].strip()}", flush=True)
    path.write_text(source)
    killed = outcomes["failed"] + outcomes["timeout"]
    print(f"{module}: {killed}/{killed + outcomes['passed']} killed ({outcomes['timeout']} by timeout), "
          f"{outcomes['passed']} survived, {equivalents} equivalent", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module names under src/ttpminer, e.g. rule_miner")
    modules = parser.parse_args().modules
    equivalent = {line.split("#", 1)[0].strip() for line in EQUIVALENTS.read_text().splitlines()} - {""}
    with tempfile.TemporaryDirectory(prefix="ttpminer-mutants-") as scratch:
        workdir = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for tree in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / tree, workdir / tree, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):  # test_cli parses the README's config example
            shutil.copy(ROOT / name, workdir)
        for module in modules:
            mutate_module(workdir, module, equivalent)


if __name__ == "__main__":
    main()
