from __future__ import annotations

import kwgraph
from kwgraph import builders, calculus, functional, graphs, solver, spectral, verify

MODULES = (builders, calculus, functional, graphs, solver, spectral, verify)


def test_package_exports_exactly_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(kwgraph.__all__) == sorted(names)
    assert len(kwgraph.__all__) == len(set(kwgraph.__all__))


def test_package_names_are_the_defining_objects():
    # perfbench's tracer rebinds functions by identity, wherever held
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(kwgraph, name) is obj
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name

