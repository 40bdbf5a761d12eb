"""The documentation's examples run: every module's doctests, each
``python`` block of README.md as a script of its own, and README's CLI
block as a shell script."""

import doctest
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mmsfair

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(mmsfair.__path__, "mmsfair."))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
CLI_BLOCK = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README, re.MULTILINE | re.DOTALL)[1]


@pytest.mark.parametrize("name", ["mmsfair"] + MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", block], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_readme_cli_block_runs(tmp_path):
    shim = tmp_path / "mmsfair"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m mmsfair.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
    done = subprocess.run(["sh", "-e", "-c", CLI_BLOCK], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
