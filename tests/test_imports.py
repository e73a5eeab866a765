import os
import subprocess
import sys
from pathlib import Path

import pytest

import spheremat

SRC = str(Path(spheremat.__file__).resolve().parent.parent)


def run_python(code, stdin=""):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_exact_path_leaves_numpy_unloaded():
    code = (
        "import sys\n"
        "loaded = []\n"
        "import spheremat\n"
        "loaded.append('numpy' in sys.modules)\n"
        "import spheremat.cli\n"
        "loaded.append('numpy' in sys.modules)\n"
        "code = spheremat.cli.main(['member', '-'])\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(code, loaded, file=sys.stderr)\n"
    )
    proc = run_python(code, stdin="2\n3 2\n4 3\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "0 [False, False, False]"
    assert '"member": true' in proc.stdout


@pytest.mark.parametrize(
    "argv, stdin, status, needle",
    [
        (["enumerate", "-n", "2", "-m", "5"], "", 0, '"order": 120'),
        (["normality", "-n", "2", "-m", "4", "--power", "2"], "", 0, '"normal": true'),
        (["normality", "-n", "2", "-m", "5", "--subgroup", "-"], "2\n1 1\n0 1\n", 1, '"normal": false'),
    ],
)
def test_group_subcommands_leave_numpy_unloaded(argv, stdin, status, needle):
    code = (
        "import sys\n"
        "import spheremat.cli\n"
        f"code = spheremat.cli.main({argv!r})\n"
        "print(code, 'numpy' in sys.modules, file=sys.stderr)\n"
    )
    proc = run_python(code, stdin=stdin)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == f"{status} False"
    assert needle in proc.stdout


def test_numerical_names_resolve_lazily():
    from spheremat import PhaseAmbiguityError, psi_map, run_ledger

    assert callable(psi_map) and callable(run_ledger)
    assert issubclass(PhaseAmbiguityError, RuntimeError)
    assert spheremat.spheres.psi_map is psi_map
    assert spheremat.ledger.run_ledger is run_ledger
    for name in dir(spheremat):
        getattr(spheremat, name)


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        spheremat.no_such_name
