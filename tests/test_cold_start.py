"""Cold start: ``import spacefill`` loads numpy only, and scipy loads at the
first distance kernel call.  Commands that compute no distance never load
it, and the CSV writer builds its tables at its first write.  Each check
runs in a fresh interpreter, since this process has loaded scipy long ago."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(body: str) -> str:
    """The last stdout line of a fresh interpreter that runs body and then
    prints its ``rc`` and whether scipy is loaded."""
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        "rc = None",
        body,
        "sys.stdout.flush()",
        "print(rc, 'scipy' in sys.modules)",
    ])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    return done.stdout.splitlines()[-1]


def _main(argv) -> str:
    return _run("from spacefill import cli\n"
                "try:\n"
                f"    rc = cli.main({argv!r})\n"
                "except SystemExit as exc:\n"
                "    rc = exc.code")


@pytest.mark.parametrize("module", ["spacefill", "spacefill.cli"])
def test_import_loads_no_scipy(module):
    assert _run(f"import {module}") == "None False"


@pytest.mark.parametrize("argv, rc", [
    (["--help"], 0),
    (["generate", "--algo", "random", "--dim", "3", "--n", "50", "--seed", "1"], 0),
    (["generate", "--algo", "lhs-basic", "--dim", "4", "--n", "50", "--latinize",
      "--seed", "1"], 0),
    (["generate", "--algo", "grid", "--dim", "2", "--params", "bins=4", "--seed", "1"], 0),
    (["generate", "--algo", "stratified", "--dim", "2", "--params", "bins=4", "--seed", "1"], 0),
    (["generate", "--algo", "grid", "--dim", "2", "--n", "9", "--seed", "1"], 2),
], ids=["help", "random", "lhs-basic", "grid", "stratified", "usage-error"])
def test_command_without_distances_loads_no_scipy(argv, rc):
    assert _main(argv) == f"{rc} False"


@pytest.mark.parametrize("argv, written", [
    (["latinize", "--seed", "1"], 8),
    (["plot"], None),
    (["expand", "--new-lower", "0,0", "--new-upper", "0.5,0.5"], None),
], ids=["latinize", "plot", "expand-shrink"])
def test_csv_command_loads_no_scipy(tmp_path, argv, written):
    path = tmp_path / "in.csv"
    path.write_text("x0,x1\n" + "".join(f"{i / 7},{(3 * i % 7) / 7}\n" for i in range(7)))
    out = tmp_path / "out"
    assert _main(argv + ["--in", str(path), "--out", str(out)]) == "0 False"
    assert out.exists()
    if written is not None:
        assert out.read_text().count("\n") == written


def test_writer_tables_built_at_first_write():
    """Importing the CLI builds none of the CSV writer's tables.  The first
    write builds them, later writes reuse them, and writing loads no module."""
    assert _run("import io\n"
                "from spacefill import cli\n"
                "built, loaded = cli._write_tables.cache_info().currsize, set(sys.modules)\n"
                "for points in ([[1 / 3, -0.0]], [[2.0, 1e-300]]):\n"
                "    cli.write_samples(cli.np.array(points), io.StringIO())\n"
                "info = cli._write_tables.cache_info()\n"
                "rc = built, info.currsize, info.misses, sorted(set(sys.modules) - loaded)") \
        == "(0, 1, 1, []) False"


def test_first_distance_call_loads_scipy():
    assert _run("import numpy as np\n"
                "from spacefill.core import min_squared_dists\n"
                "assert 'scipy' not in sys.modules\n"
                "rc = min_squared_dists(np.zeros((3, 2)), np.ones((2, 2))).tolist()") \
        == "[2.0, 2.0, 2.0] True"
