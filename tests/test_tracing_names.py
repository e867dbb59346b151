"""The benchmark's tracer names library functions by string, so renaming or
deleting one would break a traced benchmark run without failing any other
test.  This loads `perfbench/tracing.py` by path and checks its tables
against the package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists_and_is_not_a_generator():
    tracing = _load_tracing()
    for short, functions in tracing.LAYERS.items():
        imported = 0
        for modname in tracing._MODULES.get(short, ("vertexsplit." + short,)):
            try:
                module = importlib.import_module(modname)
            except ModuleNotFoundError:
                continue
            imported += 1
            for name in functions:
                assert hasattr(module, name), f"{modname}.{name} is gone"
                assert not inspect.isgeneratorfunction(getattr(module, name)), \
                    f"{modname}.{name} is a generator and cannot be spanned"
        assert imported, f"no module of layer {short!r} imports"
