"""The package namespace: each module's ``__all__``, republished once."""

import types

import orthocal
from orthocal import accuracy, errors, fileio, geometry, identification, kinematics, measurement

MODULES = (errors, geometry, kinematics, measurement, identification, accuracy, fileio)


def test_namespace_is_the_union_of_the_module_lists():
    public = set().union(*(mod.__all__ for mod in MODULES))
    names = {n for n in vars(orthocal) if not n.startswith("__")} | {"__version__"}
    submodules = {n for n in names if isinstance(getattr(orthocal, n), types.ModuleType)}
    assert all(getattr(orthocal, n).__name__ == f"orthocal.{n}" for n in submodules)
    assert names == public | {"__version__"} | submodules
    assert orthocal.__version__ == "0.1.0"


def test_each_name_declared_once_by_its_defining_module():
    declared = [name for mod in MODULES for name in mod.__all__]
    assert len(declared) == len(set(declared))
    for mod in MODULES:
        for name in mod.__all__:
            obj = getattr(mod, name)
            assert getattr(orthocal, name) is obj
            if isinstance(obj, (type, types.FunctionType)):
                assert obj.__module__ == mod.__name__, name
