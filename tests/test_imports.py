"""What `import sconv` and each CLI command load, checked in fresh
interpreters: a command compiles only the modules it runs, and the
package's lazy names all resolve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sconv

ROOT = Path(__file__).resolve().parent.parent
# runs a command through cli.main, then lists every loaded module on stderr
RUN_CLI = """import sys
from sconv.cli import main
try:
    main(sys.argv[1:])
finally:
    sys.stdout.flush()
    sys.stderr.write("\\n" + " ".join(sys.modules) + "\\n")
"""


def loaded(code: str, *args: str) -> set[str]:
    """The modules loaded by the end of `python -c code args`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return set(proc.stderr.splitlines()[-1].split())


def test_import_sconv_loads_arith_errors_and_numpy():
    mods = loaded("import sys, sconv; sys.stderr.write(' '.join(sys.modules))")
    assert {m for m in mods if m.split(".")[0] == "sconv"} == {"sconv", "sconv.arith",
                                                                  "sconv.errors"}
    # perfbench/run.py exits when its `import sconv` child peaks below the
    # harness's own RSS; numpy is what keeps that child above it
    assert "numpy" in mods


@pytest.mark.parametrize("command, absent", [
    ("maxorder --sset Q2 --mode sigma --k 4", "sconv.convolve fractions json csv"),
    ("asymp --sset Q2 --fn tau --n 20000", "sconv.convolve fractions json csv"),
    ("eval --sset Q2 --fn sigma --range 1..2000", "sconv.mobius sconv.convolve sconv.asymptotics"),
    ("eval --sset L2 --fn mu --range 1..2000", "sconv.asymptotics"),
    ("verify --sset L2 --n 300", "sconv.asymptotics"),
])
def test_command_loads_only_what_it_runs(command, absent):
    mods = loaded(RUN_CLI, *command.split())
    assert "sconv.cli" in mods  # the command ran
    assert not mods & set(absent.split())


def test_every_exported_name_resolves():
    ns = {}
    exec("from sconv import *", ns)
    listed = dir(sconv)
    for name in sconv.__all__:
        assert getattr(sconv, name) is ns[name]
        assert name in listed
    with pytest.raises(AttributeError):
        getattr(sconv, "no_such_name")
