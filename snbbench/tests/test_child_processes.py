"""The run stops every process it started and waits for each to end."""

import subprocess
import sys

import harness


def test_stray_child_is_killed_reaped_and_reported():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        assert harness.stop_child_processes() == [child.pid]
        assert child.pid not in harness._child_pids()
    finally:
        child.kill()
        child.wait()

