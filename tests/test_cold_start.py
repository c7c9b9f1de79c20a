"""Cold start: the package loads a submodule only when it is used, never
loads numpy, and its library modules build no dataclass.

Each case runs in a fresh interpreter, because this test process may have
numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import affinefloer

SOURCE = str(Path(affinefloer.__file__).resolve().parent.parent)


def run_fresh(code: str) -> dict:
    """Run `code` in a new interpreter that imports this checkout's package;
    the last line it prints is a JSON object, returned."""
    env = dict(os.environ, PYTHONPATH=SOURCE)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_package_loads_submodules_on_first_access():
    seen = run_fresh(
        "import json, sys\n"
        "import affinefloer\n"
        "before = sorted(m for m in sys.modules if m.startswith('affinefloer.'))\n"
        "floer = affinefloer.floer\n"
        "q1, q2 = floer.basis_vector(0, 1, 1, 0), floer.basis_vector(1, 2, 1, 0)\n"
        "floer.mu2(q2, q1, affinefloer.affine.dp6_model((1, 1, 1)))\n"
        "numchecks = affinefloer.numchecks\n"
        "try:\n"
        "    affinefloer.no_such_name\n"
        "    missing = None\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "print(json.dumps({'before': before,\n"
        "    'numchecks': numchecks is sys.modules['affinefloer.numchecks'],\n"
        "    'numpy': 'numpy' in sys.modules, 'missing': missing}))\n"
    )
    assert seen["before"] == []
    assert seen["numchecks"] and not seen["numpy"]
    assert "no_such_name" in seen["missing"]


def test_polyring_loads_affine_and_no_other_submodule():
    seen = run_fresh(
        "import json, sys\n"
        "import affinefloer.polyring\n"
        "print(json.dumps({'loaded': sorted(m for m in sys.modules\n"
        "    if m.startswith('affinefloer.')), 'numpy': 'numpy' in sys.modules}))\n"
    )
    assert seen == {"loaded": ["affinefloer.affine", "affinefloer.polyring"], "numpy": False}


def test_floer_loads_affine_and_no_other_submodule():
    seen = run_fresh(
        "import json, sys\n"
        "import affinefloer.floer\n"
        "print(json.dumps({'loaded': sorted(m for m in sys.modules\n"
        "    if m.startswith('affinefloer.'))}))\n"
    )
    assert seen == {"loaded": ["affinefloer.affine", "affinefloer.floer"]}


def test_wrapped_loads_affine_floer_polyring_and_no_other_submodule():
    seen = run_fresh(
        "import json, sys\n"
        "import affinefloer.wrapped\n"
        "print(json.dumps({'loaded': sorted(m for m in sys.modules\n"
        "    if m.startswith('affinefloer.')), 'numpy': 'numpy' in sys.modules}))\n"
    )
    assert seen == {
        "loaded": [
            "affinefloer.affine",
            "affinefloer.floer",
            "affinefloer.polyring",
            "affinefloer.wrapped",
        ],
        "numpy": False,
    }


def test_tropical_loads_affine_and_no_other_submodule():
    # the tropical oracle counts its own k, so it never loads the product it checks
    seen = run_fresh(
        "import json, sys\n"
        "import affinefloer.tropical\n"
        "print(json.dumps({'loaded': sorted(m for m in sys.modules\n"
        "    if m.startswith('affinefloer.')), 'numpy': 'numpy' in sys.modules}))\n"
    )
    assert seen == {"loaded": ["affinefloer.affine", "affinefloer.tropical"], "numpy": False}


def test_numchecks_import_does_not_load_numpy():
    seen = run_fresh(
        "import json, sys\n"
        "import affinefloer.numchecks\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules}))\n"
    )
    assert seen == {"numpy": False}


def test_library_modules_build_no_dataclass():
    # each dataclass runs about a millisecond of generated code at import;
    # the records are named tuples and one `__slots__` class, so importing
    # every submodule, the CLI included, never loads `dataclasses`
    seen = run_fresh(
        "import importlib, json, sys\n"
        "import affinefloer\n"
        "names = sorted(affinefloer._SUBMODULES)\n"
        "for name in names:\n"
        "    importlib.import_module(f'affinefloer.{name}')\n"
        "print(json.dumps({'imported': names,\n"
        "    'dataclasses': 'dataclasses' in sys.modules}))\n"
    )
    assert seen == {"imported": sorted(affinefloer._SUBMODULES), "dataclasses": False}


@pytest.mark.parametrize(
    "argv",
    [
        ["mu2", "cp2", "1", "1", "-1", "0", "1", "0"],
        ["points", "dp6", "2"],
        ["verify", "ring", "--max-degree", "2"],
        ["numeric"],
    ],
)
def test_cli_never_loads_numpy(argv):
    seen = run_fresh(
        "import json, runpy, sys\n"
        f"sys.argv = ['affinefloer', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('affinefloer.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "print(json.dumps({'status': status, 'numpy': 'numpy' in sys.modules}))\n"
    )
    assert seen == {"status": 0, "numpy": False}
