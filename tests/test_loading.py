"""What each import and each command loads, read from ``sys.modules`` at
the end of a fresh interpreter."""

import json
import subprocess
import sys

import pytest


def _run(code: str):
    """The last line ``code`` prints, run in a fresh interpreter, as JSON."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(code: str) -> set[str]:
    """The package's modules loaded once ``code`` has run."""
    return set(_run(f"{code}\nimport json, sys\nprint(json.dumps([m for m in sys.modules if m.startswith('twobridge')]))"))


def test_importing_the_package_loads_no_submodule():
    assert _loaded("import twobridge") == {"twobridge"}


def test_importing_the_cli_loads_only_its_errors():
    assert _loaded("import twobridge.cli") <= {"twobridge", "twobridge.cli", "twobridge.errors"}


@pytest.mark.parametrize(
    "argv, status",
    [
        (["analyze", "C(3,2,3)"], 0),
        (["certify", "C(3,2,3)", "--volume", "14.0", "--json"], 0),
        (["normalize", "C(2,1,2)"], 0),
        (["build", "C(3,2,3)"], 1),  # a usage error: no --variant
    ],
)
def test_a_command_that_builds_no_model_loads_no_model_code(argv, status):
    loaded = _loaded(f"from twobridge.cli import run_cli\nassert run_cli({argv!r}) == {status}")
    assert not loaded & {"twobridge.morse", "twobridge.render", "twobridge.serialize"}


def test_a_star_import_binds_exactly_all():
    names, public = _run(
        "import json, twobridge\nspace = {}\nexec('from twobridge import *', space)\n"
        "print(json.dumps([sorted(set(space) - {'__builtins__'}), twobridge.__all__]))"
    )
    assert names == public and len(public) == 47  # __all__ is in sorted order


def test_a_name_read_once_is_the_submodule_one_kept_in_the_package():
    kept, errors = _run(
        "import json, sys, twobridge\nfirst = twobridge.parse_conway\nimport twobridge.conway as conway\n"
        "print(json.dumps([first is conway.parse_conway is vars(twobridge)['parse_conway'], "
        "twobridge.errors is sys.modules['twobridge.errors']]))"
    )
    assert kept and errors


def test_dir_lists_every_public_name_before_any_is_read():
    assert _run("import json, twobridge\nprint(json.dumps(set(twobridge.__all__) <= set(dir(twobridge))))")


def test_an_unknown_name_raises_attribute_error():
    assert _run(
        "import json, twobridge\ntry:\n    twobridge.no_such_name\nexcept AttributeError as err:\n    print(json.dumps(str(err)))"
    ) == "module 'twobridge' has no attribute 'no_such_name'"
