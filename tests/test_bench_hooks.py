"""The benchmark's tracer must still find every qrflab name it wraps.

``qrfbench/tracer.py`` patches qrflab's public functions and classes by
name; a rename or merge that drops one would otherwise only surface in a
traced benchmark run. The tracer is installed in a fresh interpreter so its
wrappers cannot leak into the rest of the suite.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

INSTALL = (
    "import sys; sys.path.insert(0, 'qrfbench'); "
    "import tracer; tracer.Tracer().install()"
)


def test_tracer_installs_on_every_wrapped_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL],
        cwd=REPO, capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
