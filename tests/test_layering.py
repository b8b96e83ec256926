"""The exact layer starts without numpy; only the numeric subcommands load it.

The package root is a namespace, and each public name has one home module.

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

# the root is a namespace: it names no function and loads no module
assert "numpy" not in sys.modules
assert not [name for name in sys.modules if name.startswith("howedual.")]
assert not [name for name in vars(howedual) if not name.startswith("_")]

from howedual import verify

assert verify is sys.modules["howedual.verify"]
homes = {}
for info in pkgutil.iter_modules(howedual.__path__):
    if info.name == "__main__":
        continue
    module = importlib.import_module(f"howedual.{info.name}")
    for name in module.__all__:
        value = getattr(module, name)
        # a listed function or class is defined where it is listed, never taken from elsewhere
        if callable(value):
            assert value.__module__ == module.__name__, (module.__name__, name, value.__module__)
        assert name not in homes, (name, homes.get(name), module.__name__)
        homes[name] = module.__name__
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


def test_each_public_name_has_one_home():
    proc = run_python(ROOT_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
