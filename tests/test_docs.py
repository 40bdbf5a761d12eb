"""The documentation's examples run: every module's doctests, and each
``python`` block of README.md as a script of its own."""

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
