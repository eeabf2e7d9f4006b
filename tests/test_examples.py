"""Every script under ``examples/`` runs to completion on the library as it is."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ("bluenile_diamonds.py", "quickstart.py", "remote_service_demo.py", "zillow_housing.py")


def test_every_example_is_listed():
    assert sorted(path.name for path in (ROOT / "examples").glob("*.py")) == list(EXAMPLES)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_exits_cleanly(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
