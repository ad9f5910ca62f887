"""Span tracing of greedylsq from outside the package.

``Tracer.install`` replaces each named public function at every attribute
the package looks it up by (a module global, a re-export in the package
namespace, a class attribute or a dispatch-table entry) with a wrapper
that records one span per call: name, start, end and parent.  Spans are
kept in flat arrays in memory and written out once, at the end of a run.
``Tracer.uninstall`` puts the original objects back.

Self time is a span's duration minus the durations of its direct
children; calls are single-threaded, so children nest inside parents.
"""
import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self, package, names, hooks=None):
        """``names``: dotted ``module.function`` or ``module.Class.method``
        names relative to ``package``.  ``hooks`` maps a name to
        ``hook(counters, args, result, seconds)``, run after each traced
        call to accumulate counters taken from arguments or results."""
        self.package = package
        self.names = list(names)
        self.hooks = hooks or {}
        self.enabled = False
        self.counters = Counter()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._restore = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._earlier = []

    def reset(self):
        """Start a new pass: set the spans recorded so far aside for
        ``save`` and clear the arrays in place (wrappers hold them)."""
        if len(self.name_id):
            self._earlier.append(self.arrays())
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self._stack[:] = [-1]
        self.counters = Counter()

    def _wrap(self, name, fn):
        nid = self._ids[name]
        hook = self.hooks.get(name)
        clock = time.perf_counter
        name_ids, parents, starts, ends, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(tracer.counters, args, result, t1 - t0)
            return result

        return traced

    def install(self):
        """Wrap every name at every lookup site inside the package.

        Raises:
            LookupError: if a name does not exist in the package.
        """
        modules = [importlib.import_module(m) for m in _package_modules(self.package)]
        for name in self.names:
            parts = name.split(".")
            owner = importlib.import_module(f"{self.package.__name__}.{parts[0]}")
            for attr in parts[1:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                raise LookupError(f"traced name {name} does not exist")
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._replace(owner, parts[-1], original, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, original, wrapper)
                    elif type(value) is dict:
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapper
                                self._restore.append((value.__setitem__, key, original))

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((functools.partial(setattr, owner), attr, original))

    def uninstall(self):
        for setter, key, original in reversed(self._restore):
            setter(key, original)
        self._restore = []

    def arrays(self):
        """Spans as numpy arrays: (name_id, parent, start, end)."""
        return (np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def summary(self):
        """Per name: calls, total seconds and self seconds."""
        name_id, parent, start, end = self.arrays()
        k = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_sum
        out = {}
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        selfs = np.bincount(name_id, weights=self_time, minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(selfs[i])}
        return out

    def calls_under(self, child, ancestor, direct=False):
        """Calls of ``child`` whose parent (``direct``) or any ancestor is
        a call of ``ancestor``."""
        name_id, parent, _, _ = self.arrays()
        if child not in self._ids or ancestor not in self._ids:
            return 0
        cid, aid = self._ids[child], self._ids[ancestor]
        if direct:
            mask = (name_id == cid) & (parent >= 0)
            return int(np.count_nonzero(name_id[parent[mask]] == aid))
        # Pointer jumping: after round r, ``inside`` says whether any of a
        # span's 2^(r+1) - 1 nearest ancestors is ``ancestor``.
        inside = np.zeros(len(name_id), dtype=bool)
        hop = parent.copy()
        while np.any(hop >= 0):
            valid = hop >= 0
            inside[valid] |= (name_id[hop[valid]] == aid) | inside[hop[valid]]
            nxt = np.full_like(hop, -1)
            nxt[valid] = hop[hop[valid]]
            hop = nxt
        return int(np.count_nonzero(inside & (name_id == cid)))

    def save(self, path):
        """Write every span recorded: ``parent`` indexes spans of the same
        ``pass``; times are seconds from the first span."""
        passes = self._earlier + [self.arrays()]
        name_id, parent, start, end = (np.concatenate(cols) for cols in zip(*passes))
        pass_no = np.concatenate([np.full(len(p[0]), i, dtype=np.int32) for i, p in enumerate(passes)])
        t0 = start.min() if len(start) else 0.0
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id, parent=parent,
                            start=start - t0, end=end - t0, **{"pass": pass_no})


def _package_modules(package):
    """The package and its submodules; ``__main__`` is skipped because
    importing it runs the command line."""
    return [package.__name__] + sorted(
        f"{package.__name__}.{info.name}" for info in pkgutil.iter_modules(package.__path__)
        if info.name != "__main__")
