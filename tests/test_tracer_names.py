"""Every function the per-layer tracer patches by name still resolves.

`perfbench/tracer.py` replaces each name in its `LAYERS` table (and counts
each in `COUNTED`) from outside the package, so moving or deleting one of
them breaks the benchmark, not the package's own tests.  This reads both
tables from the file and checks each name against the modules: a
`Class.method` name must be in that class's own `__dict__`, where the
tracer looks it up; any other name must be a module attribute.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("solvdiag_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_and_counted_name_resolves():
    tracer = _tracer()
    names = [(m, fn) for m, fns in tracer.LAYERS.items() for fn in fns]
    names += [tuple(name.split(".", 1)) for name in tracer.COUNTED]
    missing = []
    for module, fn in names:
        mod = importlib.import_module(f"solvdiag.{module}")
        if "." in fn:
            cls_name, meth = fn.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and meth in cls.__dict__
        else:
            found = hasattr(mod, fn)
        if not found:
            missing.append(f"{module}.{fn}")
    assert names
    assert missing == []
