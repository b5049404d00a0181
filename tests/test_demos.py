"""The three demos, end to end: each runs as its own process with src
ahead on PYTHONPATH, exits 0, writes nothing to stderr and prints the same
bytes as before (every number it prints is a certified enclosure, so a
changed digest means a changed enclosure or a changed script)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo, digest", [
    ("chaos_walkthrough", "10b0cca99e2582ad259a88bb4b5bfca2358fb8f4de752a37676fb66885279464"),
    ("metrics_and_conjugacy", "3b774f5dab031574e8e2741dbcf5edbff1fe90f7cb84913eb7a15a3e8f8abbd6"),
    ("tails_and_thresholds", "bd6dc4ee0b9a0b53a288b1d8dfbefb2c721d04175c2bf17fd26ec35eefe80392"),
])
def test_demo_prints_its_pinned_output(demo, digest):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], cwd=ROOT, env=env,
                         capture_output=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, b"")
    assert hashlib.sha256(run.stdout).hexdigest() == digest
