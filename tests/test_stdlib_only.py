"""The package declares no dependencies: `src/capdom` imports only the
standard library and itself.  Each name has one import path, the module
that defines it, so a module loads only the capdom modules it uses, and
`capdom.cli` loads a solver module only when a command runs it."""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "capdom"


def test_src_imports_only_stdlib_and_capdom():
    allowed = set(sys.stdlib_module_names) | {"capdom"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert not outside


def test_package_root_loads_and_binds_nothing():
    probe = (
        "import json, sys\n"
        "import capdom\n"
        "public = sorted(name for name in vars(capdom) if not name.startswith('_'))\n"
        "import capdom.core\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'capdom')\n"
        "print(json.dumps([public, loaded]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    public, loaded = json.loads(out.stdout)
    assert public == []  # no re-exports such as solve_td, baker_solve or SolveResult
    assert loaded == ["capdom", "capdom.core"]


# Imports capdom.cli, then runs main(argv) in the same process; prints the
# capdom modules the import loaded, those the command added, and which of
# fractions and decimal are loaded at the end.
CLI_PROBE = (
    "import json, sys\n"
    "import capdom.cli\n"
    "def capdom_modules():\n"
    "    return {name for name in sys.modules if name.split('.')[0] == 'capdom'}\n"
    "at_import = capdom_modules()\n"
    "argv = json.loads(sys.argv[1])\n"
    "code = capdom.cli.main(argv) if argv else 0\n"
    "stdlib = sorted({'fractions', 'decimal'} & set(sys.modules))\n"
    "print(json.dumps([code, sorted(at_import), sorted(capdom_modules() - at_import), stdlib]))\n"
)


def probe_cli(*argv):
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", CLI_PROBE, json.dumps([str(a) for a in argv])],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("probe")
    inst, sol = root / "a.cd", root / "a.sol"
    code, *_ = probe_cli("gen", "random", "--n", 9, "--seed", 5, "-o", inst)
    assert code == 0
    code, *_ = probe_cli("solve", "--algo", "greedy-unsplit", "-o", sol, inst)
    assert code == 0
    return inst, sol


def test_cli_import_loads_no_solver():
    _, loaded, _, stdlib = probe_cli()
    assert loaded == ["capdom", "capdom.cli", "capdom.core", "capdom.fileio"]
    assert stdlib == []  # fractions, which pulls in decimal, is bench's alone


@pytest.mark.parametrize(
    "argv, added",
    [
        (("solve", "--algo", "greedy-split", "-o", "OUT", "A"), ["capdom.greedy"]),
        (("solve", "--algo", "dp", "-o", "OUT", "A"), ["capdom.tddp", "capdom.treewidth"]),
        (("verify", "A", "SOL"), []),
    ],
    ids=["greedy-split", "dp", "verify"],
)
def test_command_loads_only_its_solver(argv, added, instance_files, tmp_path):
    inst, sol = instance_files
    files = {"A": inst, "SOL": sol, "OUT": tmp_path / "out.sol"}
    code, _, new, stdlib = probe_cli(*(files.get(a, a) for a in argv))
    assert code == 0 and new == added and stdlib == []
