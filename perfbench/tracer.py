"""Spans and counts around the public functions of each lsicert module.

The tracer wraps every public module-level function of each layer, plus
the density and sampling methods named in METHODS, from outside the
package. A function is patched at every binding site: each `lsicert.*`
module attribute that holds the original object is replaced, so calls
through `from .criteria import criteria_report` are seen as well as
calls through the home module. `uninstall` restores every original.

A span's self time is its duration minus the durations of wrapped calls
nested directly inside it; a layer's self time sums the self times of
its spans. Time spent in the tracer's own count hooks is excluded from
every enclosing span.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "model", "criteria", "gaussian", "gibbs", "fokker_planck",
          "oracles", "instances")

# traced key -> (layer, class name, method name)
METHODS = {
    "gaussian.logpdf": ("gaussian", "GaussianDist", "logpdf"),
    "gibbs.mixture_logpdf": ("gibbs", "GaussianMixture", "logpdf"),
    "gibbs.mixture_sample": ("gibbs", "GaussianMixture", "sample"),
}

# Decimals kept when hashing a mixture component's (mean, cov).
DISTINCT_DECIMALS = 9


def collapsed_word_count(n_blocks: int, sweeps: int) -> int:
    """Distinct laws after `sweeps` sweeps of an n-block sampler.

    A block update is idempotent, so component words that agree after
    collapsing repeated letters give the same law: n (n-1)^j words of
    collapsed length j + 1, summed over j < sweeps.
    """
    return n_blocks * sum((n_blocks - 1) ** j for j in range(sweeps))


class _Stat:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.present = set()
        self._saved = []
        self._stack = []
        self._hook_time = 0.0
        self._sweep_index = 0
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self) -> None:
        """Forget all spans and counts (called at the start of a round)."""
        self.stats = defaultdict(_Stat)
        self.counts = defaultdict(int)
        self.problems = []
        self._errors = []

    def begin_op(self) -> None:
        self._sweep_index = 0

    def _wrap(self, key: str, layer: str, fn, hook=None):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stat = tracer.stats[key]
            frame = [0.0, tracer._hook_time]
            stack.append(frame)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if layer == "criteria" and not any(exc is e for e in tracer._errors):
                    tracer._errors.append(exc)
                    tracer.counts["criteria.errors"] += 1
                raise
            finally:
                elapsed = clock() - t0 - (tracer._hook_time - frame[1])
                stack.pop()
                stat.depth -= 1
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.self_time += elapsed - frame[0]
                if stat.depth == 0:
                    stat.total += elapsed
            if hook is not None:
                h0 = clock()
                try:
                    hook(tracer, result, args, kwargs)
                finally:
                    tracer._hook_time += clock() - h0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable at every binding site."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "lsicert" or name.startswith("lsicert."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"lsicert.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                self.present.add(key)
                wrappers[id(obj)] = (obj, self._wrap(key, layer, obj,
                                                     HOOKS.get(key)))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        for key, (layer, cls_name, meth) in METHODS.items():
            mod = sys.modules.get(f"lsicert.{layer}")
            cls = getattr(mod, cls_name, None)
            orig = getattr(cls, "__dict__", {}).get(meth)
            if orig is None or not callable(orig):
                continue
            self.present.add(key)
            self._saved.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(key, layer, orig, HOOKS.get(key)))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)

    # -- summaries -------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.self_time for k, s in self.stats.items()
                   if k.startswith(prefix))

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(s.calls for k, s in self.stats.items()
                   if k.startswith(prefix))

    def exact_counts(self) -> dict:
        """Every count that must repeat exactly for equal inputs."""
        out = {f"{k}.calls": s.calls for k, s in self.stats.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))


def _hook_weighted_gibbs(tracer: Tracer, mix, args, kwargs) -> None:
    """Count raw and distinct components of each swept mixture."""
    import numpy as np

    tracer._sweep_index += 1
    comps = getattr(mix, "components", ())
    seen = set()
    for comp in comps:
        h = hashlib.blake2b(digest_size=16)
        h.update((np.round(comp.mean, DISTINCT_DECIMALS) + 0.0).tobytes())
        h.update((np.round(comp.cov, DISTINCT_DECIMALS) + 0.0).tobytes())
        seen.add(h.digest())
    raw = len(comps)
    tracer.counts["gibbs.components_raw"] += raw
    tracer.counts["gibbs.components_distinct"] += len(seen)
    if raw:
        dim = comps[0].mean.shape[0]
        size = raw * dim * dim * 8
        tracer.counts["gibbs.mixture_bytes"] = max(
            tracer.counts["gibbs.mixture_bytes"], size)
    model = args[1] if len(args) > 1 else kwargs.get("model")
    if model is None:
        return
    n_blocks = model.partition.n
    want = collapsed_word_count(n_blocks, tracer._sweep_index)
    if len(seen) != want:
        tracer.problems.append(
            f"sweep {tracer._sweep_index} of a {n_blocks}-block model has "
            f"{len(seen)} distinct components, collapsed-word count is {want}")


def _hook_langevin(tracer: Tracer, result, args, kwargs) -> None:
    particles = getattr(result, "particles", None)
    steps = getattr(result, "steps", 0)
    if particles is not None:
        tracer.counts["fokker_planck.particle_steps"] += \
            int(steps) * int(particles.shape[0])


HOOKS = {
    "gibbs.apply_weighted_gibbs": _hook_weighted_gibbs,
    "fokker_planck.langevin_particles": _hook_langevin,
}
