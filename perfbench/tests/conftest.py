import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402


@pytest.fixture(scope="session")
def hf():
    return run.import_program()
