"""In-memory span tracer that wraps the public functions of `voicehr`.

`Tracer` replaces every public module-level function of each `voicehr`
module (and `FdTargeter.solve`) with a wrapper that records one span per
call: name, binding site, start, end and parent span. It patches the
name in every `voicehr` module that imported the function, so a call is
traced wherever it is looked up, and it restores every original binding
on exit. Only public names are wrapped; `_kernels` is listed for its two
public kernels and may disappear without breaking the tracer.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
from collections import Counter
from time import perf_counter

MODULES = ("signal_io", "speech_features", "ecg_hr", "_kernels", "classify",
           "regression", "extract", "pipeline", "synth", "cli")

# Files whose sizes make the byte counts: name -> (kind, argument index,
# argument name). Paths are summed after the run, so no stat() call lands
# inside a traced span.
SIZE_HOOKS = {
    "signal_io.write_audio": ("written", 1, "path"),
    "signal_io.write_ecg": ("written", 1, "path"),
    "signal_io.load_audio": ("read", 0, "path"),
    "signal_io.load_ecg": ("read", 0, "path"),
    "signal_io.load_manifest": ("read", 0, "path"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counts taken at a function's boundary: name -> hook(counter, args, kwargs, result).
COUNT_HOOKS = {
    "speech_features.mfcc":
        lambda c, a, k, r: c.update(frames=r.n_frames),
    "ecg_hr.extract_heart_rate":
        lambda c, a, k, r: c.update(samples=_arg(a, k, 0, "record").samples.size),
    "pipeline.filter_observations":
        lambda c, a, k, r: c.update(rows_rejected=len(r[1])),
    "pipeline.run_experiment_separate":
        lambda c, a, k, r: c.update(cells_skipped=len(r[2])),
    "pipeline.run_experiment_combined":
        lambda c, a, k, r: c.update(cells_skipped=len(r[2])),
}


def voicehr_modules() -> list:
    """The package and those of MODULES it still has."""
    found = [importlib.import_module("voicehr")]
    for short in MODULES:
        try:
            found.append(importlib.import_module(f"voicehr.{short}"))
        except ModuleNotFoundError:
            continue
    return found


def public_functions():
    """(module, attribute, function) for every traced callable, by defining module."""
    found = []
    for mod in voicehr_modules()[1:]:
        for attr, value in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == mod.__name__):
                found.append((mod, attr, value))
    synth = importlib.import_module("voicehr.synth")
    found.append((synth.FdTargeter, "solve", synth.FdTargeter.solve))
    return found


def short_name(owner) -> str:
    """`voicehr.synth` -> `synth`; a class -> `synth.FdTargeter`."""
    if inspect.isclass(owner):
        return f"{owner.__module__.removeprefix('voicehr.')}.{owner.__qualname__}"
    return owner.__name__.removeprefix("voicehr.").removeprefix("voicehr") or "voicehr"


class Tracer:
    """Context manager: wrap on enter, restore every binding on exit."""

    def __init__(self):
        # span = (name, site, start, end, parent index or -1)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.paths = {"written": [], "read": []}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name: str, site: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        count_hook = COUNT_HOOKS.get(name)
        size_hook = SIZE_HOOKS.get(name)
        paths = self.paths[size_hook[0]] if size_hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                # a tuple of atoms, which the cyclic GC stops tracking, so a
                # run's worth of spans does not slow every later collection
                spans[index] = (name, site, start, end, parent)
            if count_hook is not None:
                count_hook(counts, args, kwargs, result)
            if paths is not None:
                paths.append(os.fspath(_arg(args, kwargs, size_hook[1], size_hook[2])))
            return result

        return traced

    def __enter__(self):
        modules = voicehr_modules()
        try:
            for owner, attr, fn in public_functions():
                name = f"{short_name(owner)}.{attr}"
                if inspect.isclass(owner):
                    self._patch(owner, attr, self._wrap(fn, name, short_name(owner)))
                    continue
                for mod in modules:
                    if vars(mod).get(attr) is fn:
                        self._patch(mod, attr, self._wrap(fn, name, short_name(mod)))
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self.restore()
        return False

    def byte_counts(self) -> dict:
        """Sizes of the files written and read, from the files on disk now."""
        return {f"bytes_{kind}": sum(os.path.getsize(p) for p in paths)
                for kind, paths in self.paths.items()}

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,site,start,end,parent\n")
            for i, (name, site, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{site},{start!r},{end!r},{parent}\n")


def layer_stats(spans) -> tuple[list[dict], int]:
    """Per (name, site): calls, total and self time; plus violation count.

    Self time is a span's duration minus the durations of its direct
    children. A violation is a span whose children sum to more than it.
    """
    child_time = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[tuple, list] = {}
    violations = 0
    for (name, site, start, end, _), children in zip(spans, child_time):
        duration = end - start
        if children > duration + 1e-9:
            violations += 1
        row = stats.setdefault((name, site), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - children
    rows = [{"name": name, "site": site, "calls": c, "total_s": t, "self_s": s}
            for (name, site), (c, t, s) in sorted(stats.items())]
    return rows, violations


def nested_measures(spans) -> int:
    """Synth-site `mfcc` calls made inside `FdTargeter.solve` (targeting measures)."""
    n = 0
    for name, site, _, _, parent in spans:
        if name == "speech_features.mfcc" and site == "synth":
            while parent >= 0 and spans[parent][0] != "synth.FdTargeter.solve":
                parent = spans[parent][4]
            n += parent >= 0
    return n


def calibrate_overhead(repeats: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""
    def noop(*args, **kwargs):
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "noop", "noop")
    best = float("inf")
    for _ in range(5):
        tracer.spans.clear()
        t0 = perf_counter()
        for _ in range(repeats):
            noop(1, 2)
        t1 = perf_counter()
        for _ in range(repeats):
            wrapped(1, 2)
        t2 = perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / repeats)
    return max(best, 0.0)
