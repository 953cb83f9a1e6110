import os
import subprocess
import sys
import types

import lrchain

# scipy adds about 0.4 s and 20 MB to every process that imports the package;
# the library itself must run on numpy alone.  concurrent.futures would mean a
# thread or process pool, and every entry point runs serially.
UNWANTED = ("scipy", "concurrent")


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lrchain.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, lrchain; print(sorted(m for m in sys.modules if m.split('.')[0] in {UNWANTED!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def test_every_export_resolves():
    # a member deleted from a module must leave `__all__` with it
    assert [name for name in lrchain.__all__ if not hasattr(lrchain, name)] == []
    assert len(set(lrchain.__all__)) == len(lrchain.__all__)
    exec("from lrchain import *", {})  # raises on a name in `__all__` that the package does not bind
    # and every public name the package binds, apart from its submodules, is listed
    public = {
        name for name, value in vars(lrchain).items() if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(lrchain.__all__)) == []
