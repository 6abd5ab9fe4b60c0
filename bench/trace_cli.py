"""Run one drt CLI stage with spans recorded around the package's layers.

Usage: python trace_cli.py SPANS_JSON drt-cli-args...

Wraps the public functions and methods of every drt layer module, runs
``drt.cli.main`` with the remaining arguments, and writes the recorded
spans to SPANS_JSON when the stage ends. A call becomes a span when it
crosses from one layer into another, or when its name is in KEY_SPANS;
calls inside a layer count toward that layer's self time. Nothing under
src/ changes: the wrappers exist only in this process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

# The package modules, one layer each. rng and phantoms are left unwrapped:
# their time counts as the calling layer's self time.
LAYERS = ("cli", "volume", "filters", "forest", "morphology", "petro",
          "capillary", "rocktype")

# Spans recorded even when called from their own layer.
KEY_SPANS = frozenset({"forest.ForestModel.predict_batch"})


# Counters taken after a span ends, from its arguments and result.
HOOKS = {
    "forest.ForestModel.predict_batch":
        lambda args, kw, res: {"rows": int(args[1].shape[0])},
    "filters.build_feature_stack":
        lambda args, kw, res: {"bytes": 4 * int(res.data.size)},
    "morphology.local_thickness":
        lambda args, kw, res: {"pore_voxels": int((args[0].data != 0).sum())},
    "volume.load_volume":
        lambda args, kw, res: {"bytes": os.path.getsize(args[0])},
    "volume.save_volume":
        lambda args, kw, res: {"bytes": os.path.getsize(args[1])},
    "rocktype.emit_camo_chart":
        lambda args, kw, res: {"bytes": os.path.getsize(args[2])},
}


class Recorder:
    """Spans as [name, start, end, parent index, counters], kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.open: list[int] = [-1]
        self.layers: list[str] = [""]

    def call(self, name, layer, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.open[-1]
        self.open.append(idx)
        self.layers.append(layer)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.open.pop()
            self.layers.pop()
            self.spans[idx] = [name, t0, t1, parent, None]
        hook = HOOKS.get(name)
        if hook is not None:
            self.spans[idx][4] = hook(args, kwargs, result)
        return result

    def wrap(self, fn, name: str, layer: str):
        always = name in KEY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not always and self.layers[-1] == layer:
                return fn(*args, **kwargs)
            return self.call(name, layer, fn, args, kwargs)
        return traced

    def install(self) -> None:
        """Replace every public drt function, and each name bound to one."""
        modules = {layer: importlib.import_module(f"drt.{layer}") for layer in LAYERS}
        swapped: dict[int, tuple] = {}
        for layer, mod in modules.items():
            if layer == "cli":
                continue  # the stage root span covers cli
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    swapped[id(obj)] = (obj, self.wrap(obj, f"{layer}.{name}", layer))
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            setattr(obj, mname,
                                    self.wrap(meth, f"{layer}.{name}.{mname}", layer))
        # rebind every module-level name, including `from .x import f` copies
        for mod in [importlib.import_module("drt"), *modules.values()]:
            for name, obj in list(vars(mod).items()):
                hit = swapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import drt.cli  # import cost is measured apart, as cli.import_s
    rec = Recorder()
    rec.install()
    try:
        code = rec.call("cli.main", "cli", drt.cli.main, (cli_args,), {})
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
