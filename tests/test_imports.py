"""Importing the package loads no scipy; the one scipy user (the convex hull
in `loops._candidate_order`) imports it when first called."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import ample


def test_no_module_imports_scipy():
    names = sorted(m.name for m in pkgutil.iter_modules(ample.__path__))
    assert {"convexity", "hprinciple", "loops", "reparam"} <= set(names)
    code = "".join(f"import ample.{n}\n" for n in names) + (
        "import sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(ample.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"
