"""The exact layer starts without numpy; only the numeric subcommands load it.

Each check runs in a fresh interpreter, because this test process has
numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

EXACT_COMMANDS = [
    ["occurs", "--l", "2", "--lp", "3", "--mu", "2,1"],
    ["correspond", "--l", "2", "--lp", "3", "--mu", "2,1"],
    ["dims", "--l", "2", "--lp", "3", "--mu", "2,1"],
    ["constants", "--l", "2", "--lp", "3"],
    ["dist", "--l", "2", "--lp", "3", "--mu", "4,2", "--emit-latex"],
]

CLI_SCRIPT = """
import contextlib, io, json, sys
import howedual, howedual.cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = howedual.cli.main(argv)
    assert code == 0, (argv, out.getvalue())
    return json.loads(out.getvalue())

assert "numpy" not in sys.modules
for argv in json.loads(sys.argv[1]):
    run(argv)
    assert "numpy" not in sys.modules, argv
value = run(["eval", "--l", "1", "--lp", "2", "--mu", "2", "--at", sys.argv[2]])["value"]
assert "numpy" in sys.modules
assert run(["verify", "--suite", "cw_identity"])["pass"] is True
print(value)
"""

ROOT_SCRIPT = """
import importlib, pkgutil, sys
import howedual

assert "numpy" not in sys.modules
assert {"verify", "RngStream", "McReport"} <= set(dir(howedual))
try:
    howedual.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute did not raise")
assert "numpy" not in sys.modules

from howedual import McReport, RngStream

import howedual.verify

assert howedual.verify is sys.modules["howedual.verify"]
assert RngStream is howedual.verify.RngStream and McReport is howedual.verify.McReport
assert McReport.build(1.0, 1.0, 1, 0).rel_error == 0.0
assert RngStream(0).generator().random() == RngStream(0).generator().random()
# every listed name resolves, so a removed one cannot linger as a stale export
for name in dir(howedual):
    getattr(howedual, name)
for info in pkgutil.iter_modules(howedual.__path__):
    if info.name == "__main__":
        continue
    module = importlib.import_module(f"howedual.{info.name}")
    for name in module.__all__:
        getattr(module, name)
print("ok")
"""


def run_python(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", *argv], env=env, capture_output=True, text=True, timeout=60)


def test_exact_subcommands_never_import_numpy(tmp_path):
    mat = tmp_path / "w.json"
    mat.write_text(json.dumps([[[0.5, 0.0], [0.0, 0.3]]]))
    proc = run_python(CLI_SCRIPT, json.dumps(EXACT_COMMANDS), str(mat))
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0


def test_package_root_loads_the_numeric_checks_on_first_use():
    proc = run_python(ROOT_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
