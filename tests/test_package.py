import subprocess
import sys
from importlib import import_module

import pytest

import diograph


def test_package_names_resolve_to_their_submodule_objects():
    for name in diograph.__all__:
        module = import_module(f"diograph.{diograph._SUBMODULE_OF[name]}")
        assert getattr(diograph, name) is getattr(module, name), name
    assert set(diograph.__all__) <= set(dir(diograph))
    assert {"graph", "numtheory", "witnesses", "__version__"} <= set(dir(diograph))
    assert diograph.graph is import_module("diograph.graph")
    with pytest.raises(AttributeError, match="no_such_name"):
        diograph.no_such_name


def test_star_import_matches_all():
    namespace: dict = {}
    exec("from diograph import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(diograph.__all__)


def test_importing_the_package_imports_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, diograph; print(sorted(m for m in sys.modules if 'diograph' in m"
         " or m == 'numpy'))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['diograph']"
