"""Span tracer that wraps the public functions of the fireseg modules.

The benchmark installs it from its own files; the program is unchanged.
A module often calls another module's function through a name it bound
at import (`fireseg.unet.conv2d_forward`, `fireseg.training.adam_step`)
or through a module alias (`fireseg.training.U.forward`,
`fireseg.cli.F.write_day`). So the tracer replaces every module attribute
that refers to a wrapped function, not only the one in the defining
module, and restores each of them on exit.

Spans stay in memory: name, start, end, parent span, the request
(set-up or pipeline iteration) they belong to, and a few argument facts
(weight shape, batch size, paths) that the report turns into per-layer
numbers after the run.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass, field

MODULES = ("kernels", "unet", "training", "data", "formats", "synthetic", "metrics", "cli")
_MARK = "_perfbench_span"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    request: str
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _modules():
    return [importlib.import_module(f"fireseg.{m}") for m in MODULES]


def _public_functions(module) -> dict[str, object]:
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def _facts(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Cheap argument and result facts kept on the span; the report derives the rest."""
    if name.startswith("kernels.conv"):
        return {"x": args[0].shape, "w": args[1].weights.shape}
    if name == "unet.forward":
        training = kwargs.get("training", args[2] if len(args) > 2 else False)
        return {"n": args[1].shape[0], "training": training}
    if name == "unet.backward":
        return {"n": args[2].shape[0]}
    if name in ("formats.write_day", "formats.read_day"):
        day = args[1] if name == "formats.write_day" else (result or (None,))[0]
        return {"bytes": day.features.nbytes + day.mask.nbytes} if day is not None else {}
    if name == "training.predict_day":
        return {"mask": args[1].mask}
    if name == "synthetic.generate_dataset":
        cfg = args[0]
        return {"pixels": cfg.height * cfg.width * cfg.days}
    return {}


def installed() -> list[str]:
    """Every `fireseg.<module>.<name>` that currently holds a tracer wrapper."""
    return [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name, obj in vars(module).items()
        if getattr(obj, _MARK, None) is not None
    ]


class Tracer:
    """Context manager: wraps on enter, restores on exit, keeps the spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = "-"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.request, _facts(name, args, kwargs, result))

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, name)
        return wrapper

    def __enter__(self) -> "Tracer":
        if installed():
            raise RuntimeError("a tracer is already installed")
        modules = _modules()
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(module).items():
                wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
