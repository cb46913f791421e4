import os
import subprocess
import sys
from pathlib import Path

import pytest

from nvortex import ConformalDisk, shoot


@pytest.fixture(scope="session")
def disk3():
    return ConformalDisk.flat(3.0)


@pytest.fixture(scope="session")
def radial_r3(disk3):
    """Converged centered-vortex profile at the default step count (shared)."""
    profile = shoot(disk3, n=1)
    assert profile.converged
    return profile


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def run_python():
    """Run ``python *argv`` in a fresh process with ``src`` on the import path.

    ``threads`` sets ``OPENBLAS_NUM_THREADS``: the thread count is fixed when
    OpenBLAS loads, so comparing thread counts needs one process each.
    Returns the completed process (stdout and stderr as text); an exit code
    other than ``returncode`` fails the test with its stderr.
    """

    def run(*argv: str, threads: int | None = None, returncode: int = 0) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = str(threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == returncode, done.stderr
        return done

    return run
