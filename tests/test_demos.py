"""The demos run end to end against the current library.

Each demo is a script that writes next to itself, so they run from a
temporary copy of `demos/`, in order: 01 writes the `out/` that 02, 03
and 05 read.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


def test_demos_run_in_order(tmp_path):
    scripts = sorted(p.name for p in DEMOS.glob("[0-9][0-9]_*.py"))
    assert scripts == [
        "01_train_flow.py",
        "02_sample_and_interpolate.py",
        "03_gaussianity_and_lda.py",
        "04_denoise.py",
        "05_reconstruct_audio.py",
    ]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for name in scripts:
        shutil.copy(DEMOS / name, tmp_path / name)
    for name in scripts:
        proc = subprocess.run(
            [sys.executable, name],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, f"{name}:\n{proc.stderr}"
