"""Smoke test of the command line, `python -m psprsim` and each of its
subcommands: each imports what it uses from the package and prints its
usage, so a renamed or removed package name fails here rather than on the
first real run. Also checks that README documents every flag of every
subcommand, that no package module imports another's
private names: a rule a module keeps to itself has one owner, that a module
imports no name it never reads unless the benchmark tracer patches that
name there, and that the package does not import scipy.stats, which every
worker and `analyze` process would pay for in start-up time and memory."""

import argparse
import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from psprsim import cli, engine, irt, marginal, procedures, reports
from psprsim.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SUBCOMMANDS = ["simulate", "analyze", "fit-irt", "fit-approx", "calibrate-omnibus",
               "rescore", "make-reference"]


def test_subcommands_listed():
    assert "{" + ",".join(SUBCOMMANDS) + "}" in build_parser().format_usage()


def test_readme_documents_every_flag():
    # a whole token, so that --m does not pass on --maxt-tol; a removed flag
    # must leave the README and a new one must enter it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = [f"{name} {flag}" for name, parser in sub.choices.items()
               for action in parser._actions if not isinstance(action, argparse._HelpAction)
               for flag in action.option_strings
               if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", readme)]
    assert missing == []


@pytest.mark.parametrize("command", [[]] + [[name] for name in SUBCOMMANDS],
                         ids=["-m psprsim"] + SUBCOMMANDS)
def test_help_exits_zero(command):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "psprsim", *command, "--help"], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_no_module_imports_a_private_name():
    found = []
    for path in sorted((ROOT / "src" / "psprsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_package_does_not_import_scipy_stats():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys, psprsim, psprsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _unread_imports(path: Path) -> set[str]:
    """The names a module binds by import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_unread_imports_are_tracer_call_sites():
    # perfbench/tracing.py patches some names where a module imports them and
    # never calls them; any other unread import is dead. The list is what a
    # probe hook in the package, in place of the patching, would free.
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = dict(engine=engine, cli=cli, procedures=procedures,
                   marginal=marginal, reports=reports, irt=irt)
    before = {name: dict(vars(module)) for name, module in modules.items()}
    with tracing.Tracer().installed(modules):
        patched = {name: {k for k, v in vars(module).items() if before[name].get(k) is not v}
                   for name, module in modules.items()}
    dead, tracer_only = [], []
    for path in sorted((ROOT / "src" / "psprsim").glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's public names
            continue
        for name in sorted(_unread_imports(path)):
            kept = name in patched.get(path.stem, set())
            (tracer_only if kept else dead).append(f"{path.stem}.{name}")
    assert dead == []
    assert tracer_only == ["cli.estimate_corr", "cli.fit_marginals",
                           "procedures.eap_scores", "procedures.fit_ancova"]
