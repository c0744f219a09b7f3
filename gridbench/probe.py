"""Instrumentation of gridevade from outside its source.

`Probe` replaces public functions of the package's modules with wrappers
for the duration of a `with probe.installed():` block and restores them
afterwards. A wrapper always passes the call through unchanged. It can

- hand the call's arguments, result and start/end times to an observer
  (the correctness checks and the end-to-end timings use this), and
- in a traced probe, record a span (name, start, end, parent span) in
  memory. Spans are written out once the run ends; `layer_stats` derives
  per-layer call counts, mean time and mean self time from them.

An untraced probe wraps only the few functions that have an observer, so
the end-to-end figures pay one Python call per observed function and
nothing else.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from importlib import import_module

PACKAGE = "gridevade"

# Public functions the traced run wraps, as (module, attribute path).
TARGETS = (
    ("grid_traces", "generate_trace"),
    ("gabor", "build_field"),
    ("gabor", "perturbation_vector"),
    ("attack_env", "AttackEnv.__init__"),
    ("attack_env", "AttackEnv.step"),
    ("attack_env", "reward"),
    ("detector", "posterior"),
    ("detector", "train_detector"),
    ("neural", "forward"),
    ("neural", "forward_full"),
    ("neural", "backward"),
    ("neural", "adam_step"),
    ("ddpg", "act"),
    ("ddpg", "train_step"),
    ("ddpg", "ReplayBuffer.sample"),
    ("ddpg", "ReplayBuffer.store"),
    ("ddpg", "soft_update"),
    ("harness", "cmd_train_attacker"),
    ("harness", "evaluate_baseline"),
    ("harness", "cmd_train_detector"),
    ("harness", "run_attack_episode"),
)


class Probe:
    """Wrappers over gridevade's public functions; spans kept in memory."""

    def __init__(self, trace: bool, observers: dict | None = None):
        self.trace = trace
        self.observers = dict(observers or {})
        self.names: list[str] = []
        # (name index, start ns, end ns, parent span index or -1)
        self.spans: list = []
        self._stack = [-1]

    def _wrapper(self, name: str, fn, observer):
        spans, stack, trace = self.spans, self._stack, self.trace
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if trace:
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                if trace:
                    stack.pop()
                    spans[idx] = (name_id, t0, t1, stack[-1])
            if observer is not None:
                observer(args, kwargs, result, t0, t1)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    @contextmanager
    def installed(self):
        """Patch the targets in every loaded gridevade module; restore on exit."""
        patches = []  # (owner, attribute, original)
        try:
            for module, attr in TARGETS:
                name = f"{module}.{attr}"
                observer = self.observers.get(name)
                if not self.trace and observer is None:
                    continue
                owner = import_module(f"{PACKAGE}.{module}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if path else getattr(owner, leaf)
                wrapper = self._wrapper(name, original, observer)
                if path:
                    patches.append((owner, leaf, original))
                    setattr(owner, leaf, wrapper)
                    continue
                # A function imported by name into another module is patched
                # there as well, so every caller reaches the wrapper.
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == PACKAGE
                                           or mod_name.startswith(PACKAGE + ".")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def layer_stats(self) -> dict:
        """name -> {"calls", "total_ns", "self_ns"} from the recorded spans."""
        n = len(self.names)
        calls = [0] * n
        total = [0] * n
        child = [0] * len(self.spans)
        for name_id, t0, t1, parent in self.spans:
            calls[name_id] += 1
            total[name_id] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns = [0] * n
        for i, (name_id, t0, t1, _) in enumerate(self.spans):
            self_ns[name_id] += (t1 - t0) - child[i]
        stats = {}
        for i, name in enumerate(self.names):
            s = stats.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            s["calls"] += calls[i]
            s["total_ns"] += total[i]
            s["self_ns"] += self_ns[i]
        return stats

    def write_spans(self, path) -> None:
        """Dump names and spans as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
