import os
import subprocess
import sys

import rumorlab


def test_every_public_name_resolves():
    missing = [name for name in rumorlab.__all__ if not hasattr(rumorlab, name)]
    assert missing == []
    assert len(set(rumorlab.__all__)) == len(rumorlab.__all__)


def test_cli_start_up_imports_no_process_pool():
    # the pool stack is imported only once a run hands jobs to a pool
    src = os.path.dirname(os.path.dirname(rumorlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, rumorlab.cli; rumorlab.cli.build_parser(); "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
