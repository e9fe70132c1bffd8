"""Out-of-program tracer for the per-layer run.

It wraps, from the outside, every public function and method of the loaded
`qspectra.*` modules (in every namespace that binds it) plus
`numpy.linalg.eigh` and `numpy.linalg.svd`. Each call becomes a span with a
name, start, end, parent and request; spans stay in memory and are written
out when the run ends. A layer is the module a span's name starts with.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# Dunders that do work worth a span; the rest (repr, eq, hash, ...) are
# bookkeeping that would only add overhead.
TRACED_DUNDERS = {
    "__init__", "__post_init__", "__matmul__", "__add__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__neg__", "__abs__",
}
LAPACK = ("eigh", "svd")


def _traceable(name: str) -> bool:
    return not name.startswith("_") or name in TRACED_DUNDERS


def _lapack_size(args) -> int:
    """m * n * min(m, n) summed over the batch of a 2-D LAPACK operand."""
    shape = np.shape(args[0]) if args else ()
    if len(shape) < 2:
        return 0
    m, n = shape[-2:]
    return int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)


class Tracer:
    """Spans of one run. Span i has name id `name[i]`, times `start[i]` and
    `end[i]`, parent span `parent[i]` (-1 at the root), request `request[i]`
    and `error[i]` = 1 if it ended by an exception."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self._stack = [-1]
        self._req = -1
        self._restore: list[tuple[object, str, object]] = []
        self.probes = 0
        self.lapack_n3: dict[str, int] = defaultdict(int)
        # Layer figures measured in other processes (cli_fresh children):
        # their span summaries, import times per process, and the part of
        # the harness's own spans that those figures cover.
        self.external: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.imports: list[dict[str, float]] = []
        self.covered_s = 0.0

    # -- spans -------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int, request: bool = False) -> int:
        sid = len(self.start)
        if request:
            self._req = sid
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._req)
        self.error.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def leave(self, sid: int, failed: bool = False) -> None:
        self.end[sid] = time.perf_counter()
        if failed:
            self.error[sid] = 1
        self._stack.pop()

    def span(self, name: str, request: bool = False):
        return _Span(self, self.name_id(name), request)

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        enter, leave = self.enter, self.leave
        if name == "spectral.delta_oracle":
            def count(args, kwargs):
                probes = args[1] if len(args) > 1 else kwargs.get("probes", ())
                self.probes += len(probes)
        elif name.startswith("numpy.linalg."):
            def count(args, kwargs):
                self.lapack_n3[name] += _lapack_size(args)
        else:
            count = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            sid = enter(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                leave(sid, True)
                raise
            leave(sid)
            return out

        return traced

    def install(self) -> None:
        """Wrap the public callables of every loaded qspectra module."""
        modules = [m for k, m in list(sys.modules.items()) if k == "qspectra" or k.startswith("qspectra.")]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__.startswith("qspectra") and _traceable(obj.__name__):
                    if id(obj) not in wrapped:
                        short = obj.__module__.split(".")[-1]
                        wrapped[id(obj)] = self._wrap(f"{short}.{obj.__qualname__}", obj)
                    self._set(mod, attr, wrapped[id(obj)])
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, BaseException)
                ):
                    self._wrap_class(obj, obj.__module__.split(".")[-1])
        import numpy.linalg as la

        for fname in LAPACK:
            self._set(la, fname, self._wrap(f"numpy.linalg.{fname}", getattr(la, fname)))

    def _wrap_class(self, cls, short: str) -> None:
        for attr, member in list(vars(cls).items()):
            if not _traceable(attr):
                continue
            name = f"{short}.{cls.__qualname__}.{attr}"
            if isinstance(member, staticmethod):
                new = staticmethod(self._wrap(name, member.__func__))
            elif isinstance(member, classmethod):
                new = classmethod(self._wrap(name, member.__func__))
            elif isinstance(member, property) and member.fget is not None:
                new = property(self._wrap(name, member.fget), member.fset, member.fdel, member.__doc__)
            elif inspect.isfunction(member):
                new = self._wrap(name, member)
            else:
                continue
            self._set(cls, attr, new)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------
    def by_name(self) -> dict[str, dict[str, float]]:
        """calls, self_s and errors per span name.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans add up to the roots' time.
        """
        names = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        errors = np.bincount(names, weights=np.array(self.error, dtype=np.int8), minlength=k)
        out = {
            n: {"calls": float(calls[i]), "self_s": float(self_s[i]), "errors": float(errors[i])}
            for i, n in enumerate(self.names)
        }
        for n, figs in self.external.items():
            row = out.setdefault(n, {"calls": 0.0, "self_s": 0.0, "errors": 0.0})
            for key, v in figs.items():
                row[key] += v
        return out

    def child_finished(self, importtime_stderr: str, summary_path: Path) -> None:
        """Fold in a traced child process: its `-X importtime` output and the
        span summary it wrote."""
        imports = parse_importtime(importtime_stderr)
        self.imports.append(imports)
        self.covered_s += imports.get("total", 0.0)
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        for n, figs in summary["spans"].items():
            for key, v in figs.items():
                self.external[n][key] += v
            self.covered_s += figs["self_s"]
        self.probes += summary["probes"]
        for n, v in summary["lapack_n3"].items():
            self.lapack_n3[n] += v

    def summary(self) -> dict:
        return {"spans": self.by_name(), "probes": self.probes, "lapack_n3": dict(self.lapack_n3)}

    def save(self, path: Path) -> None:
        """Write every span: names as JSON, the columns as one .npz."""
        np.savez(
            path.with_suffix(".npz"),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            request=np.array(self.request, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            error=np.array(self.error, dtype=np.int8),
        )
        path.with_suffix(".names.json").write_text(json.dumps(self.names), encoding="utf-8")


class _Span:
    __slots__ = ("tracer", "nid", "request", "sid")

    def __init__(self, tracer: Tracer, nid: int, request: bool):
        self.tracer, self.nid, self.request = tracer, nid, request

    def __enter__(self):
        self.sid = self.tracer.enter(self.nid, self.request)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer.leave(self.sid, exc_type is not None)
        return False


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds per top-level package from `python -X importtime` output.

    A package's figure is the cumulative time of its outermost import
    entries, so it includes the dependencies it was first to import;
    `total` is the cumulative time of every top-level entry.
    """
    out: dict[str, float] = defaultdict(float)
    open_pkgs: list[tuple[int, str]] = []  # (depth, package) of enclosing entries
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line or "cumulative" in line:
            continue
        _, cumulative, label = line[len("import time:"):].split("|")
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        rows.append((depth, label.strip(), int(cumulative) * 1e-6))
    # importtime prints children before their parent; walk in reverse so
    # each entry is seen after everything that encloses it.
    for depth, module, seconds in reversed(rows):
        while open_pkgs and open_pkgs[-1][0] >= depth:
            open_pkgs.pop()
        pkg = module.split(".")[0]
        if depth == 0:
            out["total"] += seconds
        if all(p != pkg for _, p in open_pkgs):
            out[pkg] += seconds
        open_pkgs.append((depth, pkg))
    return dict(out)
