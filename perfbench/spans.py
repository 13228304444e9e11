"""Span recorder for the traced run.

``install`` swaps public functions of heatconvex (module globals and class
attributes) for timing wrappers.  Only the traced run calls it; the untraced
run runs the library untouched.  Each span records a name, start, end and
parent; spans stay in memory and are written out once, when the run ends.
A span's self time is its duration minus the part of it that its child
spans cover.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np


class SpanRecorder:
    """In-memory spans (name, start, end, parent index) plus exact counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self.maxima = {}
        self._stack = []

    def begin(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.ends[idx] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError("spans closed out of order")

    def add(self, name, start, end, parent=-1):
        """Record a finished span directly (used by tests)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def count(self, key, n=1):
        self.counts[key] += n

    def note_max(self, key, value):
        if value is not None and value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def self_times(self):
        """Total self time per span name."""
        children = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                children[p].append(i)
        totals = defaultdict(float)
        for i, name in enumerate(self.names):
            s, e = self.starts[i], self.ends[i]
            covered = 0.0
            cur_s = cur_e = None
            for c in sorted(children.get(i, ()), key=lambda c: self.starts[c]):
                cs, ce = max(self.starts[c], s), min(self.ends[c], e)
                if ce <= cs:
                    continue
                if cur_e is None or cs > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = cs, ce
                else:
                    cur_e = max(cur_e, ce)
            if cur_e is not None:
                covered += cur_e - cur_s
            totals[name] += (e - s) - covered
        return dict(totals)

    def span_counts(self):
        return Counter(self.names)

    def dump(self, path):
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        with open(path, "w") as fh:
            json.dump({"names": table,
                       "name": [code[n] for n in self.names],
                       "start": self.starts, "end": self.ends,
                       "parent": self.parents,
                       "counts": dict(self.counts),
                       "maxima": self.maxima}, fh)

    def wrap(self, name, fn, after=None):
        """fn timed as span `name`; after(result, args, kwargs) may count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper


# -- wrappers for the heatconvex layers ----------------------------------------


def _is_2d(args, kwargs):
    phi = args[0]
    out_grid = args[2] if len(args) > 2 else kwargs.get("out_grid")
    values = getattr(phi, "values", None)
    return (values is not None and np.ndim(values) == 2) or isinstance(
        out_grid[0], (tuple, list))


def _replace_everywhere(modules, orig, new, patched):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
                patched.append((mod, attr, orig))


class TracedHooks:
    """Hooks for the traced run: wraps datum callables to count evaluations."""

    def __init__(self, rec):
        self.rec = rec

    def datum(self, d):
        fn = d.fn
        rec = self.rec

        def counted(*xs):
            rec.count("heatflow.datum_calls")
            rec.count("heatflow.datum_points", int(np.broadcast(*xs).size))
            return fn(*xs)

        return replace(d, fn=counted)


def install(rec):
    """Swap heatconvex's public entry points for span wrappers.

    Returns (hooks, restore); restore() puts every original back.
    """
    import heatconvex
    import heatconvex.certify as certify
    import heatconvex.cli as cli
    import heatconvex.config as config
    import heatconvex.heatflow as heatflow
    import heatconvex.numerics as numerics
    import heatconvex.transforms as transforms
    from heatconvex.heatflow import GridFunction
    from heatconvex.transforms import FTransform

    modules = (heatconvex, numerics, transforms, heatflow, certify, config, cli)
    patched = []
    hooks = TracedHooks(rec)

    def swap(orig, name, after=None):
        _replace_everywhere(modules, orig, rec.wrap(name, orig, after), patched)

    def after_free(res, args, kwargs):
        if not _is_2d(args, kwargs):
            rec.note_max("heatflow.lattice_factor_max",
                         res.meta.get("lattice_factor"))

    swap(heatflow.heat_evolve_free,
         lambda a, k: "heatflow.free_2d" if _is_2d(a, k) else "heatflow.free_1d",
         after_free)
    swap(heatflow.heat_evolve_dirichlet, "heatflow.dirichlet")

    def after_check(res, args, kwargs):
        rec.count("certify.triples", res.n_samples)

    swap(certify.check_F_convex, "certify.check_F_convex", after_check)

    def hunt(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            history = kwargs.get("history")
            before = len(history) if history is not None else 0
            idx = rec.begin("certify.hunt")
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(idx)
                if history is not None:
                    new = history[before:]
                    rec.count("certify.hunt.levels", len(new))
                    rec.count("certify.hunt.settled", _settled_hunts(new))
        return wrapper

    _replace_everywhere(modules, certify.hunt_violation,
                        hunt(certify.hunt_violation), patched)
    swap(certify.mixture_envelope, "certify.mixture_envelope")
    swap(certify.check_envelope_comparison, "certify.envelope_comparison")
    swap(certify.check_quasi_convex, "certify.quasi_convex")
    swap(transforms.classify, "transforms.classify")
    swap(numerics.piecewise_simpson_weights, "numerics.simpson")
    swap(numerics.simpson_weights, "numerics.simpson")
    swap(numerics.invert_monotone, "numerics.invert_monotone")
    swap(config.load_config, "config.load_config")
    swap(cli._write, "cli.write")
    swap(cli.entry, "cli.entry")

    def build_datum(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            d = fn(*args, **kwargs)
            return hooks.datum(d) if isinstance(d, heatflow.InitialDatum) else d
        return wrapper

    _replace_everywhere(modules, config.build_datum,
                        build_datum(config.build_datum), patched)

    def count_points(res, args, kwargs):
        rec.count("transforms.eval.points", int(np.size(args[1])))

    for cls, attr, name, after in (
            (FTransform, "__call__", "transforms.eval", count_points),
            (FTransform, "inverse", "transforms.eval", count_points),
            (GridFunction, "to_csv", "cli.write", None)):
        orig = cls.__dict__[attr]
        setattr(cls, attr, rec.wrap(name, orig, after))
        patched.append((cls, attr, orig))

    def restore():
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)

    return hooks, restore


def _settled_hunts(history):
    """Times whose refinement settled: the hunt's own stopping rule held
    between the last two levels run for that time."""
    by_t = defaultdict(list)
    for rec in history:
        by_t[rec["t"]].append(rec["certificate"])
    settled = 0
    for certs in by_t.values():
        if len(certs) < 2:
            continue
        prev, cert = certs[-2], certs[-1]
        if prev.significant != cert.significant:
            continue
        if not cert.significant:
            settled += 1
        else:
            g0, g1 = prev.worst.gap, cert.worst.gap
            settled += abs(g1 - g0) <= 0.5 * max(abs(g0), abs(g1))
    return settled
