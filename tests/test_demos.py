import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_runs(tmp_path):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    # demos that write files use tempfile; keep those files under tmp_path
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path),
               TMPDIR=str(tmp_path))
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    failed = {}
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], env=env,
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            failed[demo.name] = proc.stderr[-2000:]
    assert not failed, failed
    assert not list(tmp_path.iterdir()), "demos left files in the temporary directory"
