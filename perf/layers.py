"""Maps profiler entries to layers and folds a profile into a layer table.

The trace is ``cProfile`` started from ``perf/`` around the calls into the
simulator; there is no span code inside ``src/``. A layer's self time is
the profiler's ``tottime`` (a function's time minus its callees') summed
over the layer's functions; ``calls`` counts calls that *enter* the layer
from another one (a generator resume counts as a call, as the profiler
sees it). Call counts repeat exactly; times are host time and are
reported as fractions.
"""

import os
import pstats

from perf.spec import LAYERS

#: Layer of each top-level package under ``src/repro`` — where a module
#: not named in MODULE_LAYERS folds to.
PACKAGE_LAYERS = {
    "sim": "sim.core",
    "nfp": "nfp.other",
    "flextoe": "flextoe.datapath",
    "libtoe": "libtoe",
    "host": "host",
    "control": "control.plane",
    "proto": "proto",
    "net": "net",
    "xdp": "xdp",
    "baselines": "baselines",
    "faults": "faults",
    "apps": "apps",
    "harness": "misc",
    "stats": "misc",
    "bench": "misc",
    "analysis": "misc",
}

#: Modules (path under ``src/repro`` without ``.py``) with a layer of
#: their own.
MODULE_LAYERS = {
    "__init__": "misc",
    "__main__": "misc",
    "sim/resources": "sim.resources",
    "nfp/fpc": "nfp.fpc",
    "nfp/dma": "nfp.dma",
    "flextoe/stages": "flextoe.stages",
    "flextoe/proto_logic": "flextoe.proto_logic",
    "flextoe/state": "flextoe.state",
    "flextoe/slab": "flextoe.slab",
    "flextoe/scheduler": "flextoe.sched",
    "flextoe/seqr": "flextoe.sched",
    "flextoe/ctxq": "flextoe.sched",
    "control/recovery": "control.recovery",
}

UNMAPPED = "unmapped"
#: File name the XDP JIT gives the closures it compiles.
_JIT_FILENAME = "<xdp-jit>"

_PERF_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of_module(relpath):
    """Layer of ``relpath`` (under ``src/repro``, with or without ``.py``)."""
    module = relpath[:-3] if relpath.endswith(".py") else relpath
    module = module.replace(os.sep, "/")
    if module in MODULE_LAYERS:
        return MODULE_LAYERS[module]
    return PACKAGE_LAYERS.get(module.split("/", 1)[0], UNMAPPED)


def layer_of_file(filename):
    """Layer of a profiler entry's file name."""
    if filename == _JIT_FILENAME:
        return "xdp"
    mark = filename.rfind(_REPRO_MARK)
    if mark >= 0:
        return layer_of_module(filename[mark + len(_REPRO_MARK):])
    if filename.startswith(_PERF_DIR):
        return "perf"
    return "python"  # builtins ('~'), the standard library, generated code


def fold(profile):
    """``{layer: {"self_s", "calls"}}`` plus the raw stats of a profile."""
    stats = pstats.Stats(profile).stats
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS + (UNMAPPED,)}
    layer_cache = {}

    def layer(func):
        found = layer_cache.get(func[0])
        if found is None:
            found = layer_cache[func[0]] = layer_of_file(func[0])
        return found

    for func, (_cc, ncalls, tottime, _cumtime, callers) in stats.items():
        own = layer(func)
        row = table[own]
        row["self_s"] += tottime
        if callers:
            row["calls"] += sum(
                entry[0] for caller, entry in callers.items() if layer(caller) != own
            )
        else:
            row["calls"] += ncalls  # entered from outside the profiled region
    return table, stats


def function_stats(stats, module, name):
    """``(ncalls, cumulative seconds)`` summed over the functions called
    ``name`` in ``src/repro/<module>.py``."""
    suffix = _REPRO_MARK + module.replace("/", os.sep) + ".py"
    ncalls = 0
    cumulative = 0.0
    for (filename, _line, funcname), (_cc, nc, _tt, ct, _callers) in stats.items():
        if funcname == name and filename.endswith(suffix):
            ncalls += nc
            cumulative += ct
    return ncalls, cumulative
