"""Span tracing of the dae2ode package from outside its source.

`Tracer.install` wraps every function listed in the ``__all__`` of each
package module (the layers below) and rebinds the wrapper under every name
that any loaded ``dae2ode`` module, the package itself included, holds for
the original.  A call made through an alias such as ``cli.simulate_ode`` or
through another module's import is therefore recorded like a direct call.
Calls between functions of one module resolve through that module's
globals, so they are recorded too.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory while the benchmark runs;
`Tracer.dump` writes them out once at the end.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("subspaces", "dae", "odesys", "associate", "lq", "heat", "matio", "cli")

# Work counts recorded from arguments and return values: name -> function of
# (args, kwargs, result) giving the amount added to "<function>.<name>".
_COUNTERS = {
    "odesys.simulate": ("samples", lambda a, k, r: len(k["times"] if "times" in k else a[3])),
    "lq.infinite_horizon": ("samples", lambda a, k, r: len(r.traj.times)),
    "lq.solve_dre": ("steps", lambda a, k, r: r[0].shape[0] - 1),
}

# Functions whose "iterations" count the preimage calls made under their span.
_ITERATED = ("dae.wong_limit", "odesys.weakly_unobservable")


def _out_dir_bytes(argv) -> int:
    """Bytes of the files a CLI call left in its --out-dir."""
    argv = list(argv or ())
    if "--out-dir" not in argv:
        return 0
    path = argv[argv.index("--out-dir") + 1]
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Tracer:
    """In-memory span recorder for calls into the dae2ode layers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.recording = False
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str):
        """Context manager recording a root span around library calls."""
        return _Span(self, name)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs, result)
            if name == "cli.main":
                self.counts["cli.out_bytes"] += _out_dir_bytes(args[0] if args else kwargs.get("argv"))
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap the layer functions and rebind every import site.

        Returns the qualified names of the wrapped functions.
        """
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        wrapped = {}
        names = []
        for layer in LAYERS:
            mod = importlib.import_module(f"dae2ode.{layer}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    qual = f"{layer}.{attr}"
                    wrapped[id(obj)] = (obj, self._wrap(qual, obj))
                    names.append(qual)
        for mod in [m for n, m in sorted(sys.modules.items()) if n == "dae2ode" or n.startswith("dae2ode.")]:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return names

    def uninstall(self) -> None:
        """Restore every binding `install` replaced."""
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    # -- analysis ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as JSON lines ``[name, start, end, parent]``."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Span:
    """A root span; library calls are recorded only while one is open."""

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self._idx = -1

    def __enter__(self):
        self._idx = self._tracer._open(self._name)
        self._tracer.recording = True
        return self

    def __exit__(self, *exc):
        self._tracer.recording = False
        self._tracer._close(self._idx)
        return False


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans, root: str) -> dict[str, float]:
    """Per-function and per-layer totals over the trees rooted at ``root``.

    Returns ``<layer>.<function>.self_s`` and ``.calls``, ``<layer>.self_s``,
    ``<layer>.calls``, the ``iterations`` of the fixed-point iterations, and
    ``<root>.self_s`` (work inside a root span outside every library call)
    and ``<root>.wall_s`` (summed root durations).
    """
    own = self_times(spans)
    under_root = [False] * len(spans)
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        if name == root and parent == -1:
            under_root[i] = True
            out[f"{root}.self_s"] += own[i]
            out[f"{root}.wall_s"] += end - start
            continue
        if parent < 0 or not under_root[parent]:
            continue
        under_root[i] = True
        layer = name.split(".", 1)[0]
        out[f"{name}.self_s"] += own[i]
        out[f"{name}.calls"] += 1
        out[f"{layer}.self_s"] += own[i]
        out[f"{layer}.calls"] += 1
        if name == "subspaces.preimage":
            p = parent
            while p >= 0:
                if spans[p][0] in _ITERATED:
                    out[f"{spans[p][0]}.iterations"] += 1
                p = spans[p][3]
    return dict(out)
