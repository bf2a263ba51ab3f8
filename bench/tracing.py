"""Per-layer spans recorded from outside the package under test.

``Tracer.install`` replaces each layer's public functions with wrappers
in every ``pinkey`` module that refers to them, so calls made inside
the package are traced too.  A span's self time is its duration minus
the time of the traced spans it contains; each timed metric is the sum
of the self times of its functions' spans.  Spans are aggregated into
per-metric totals as they end rather than stored one by one, since the
group workloads make tens of thousands of them per pass.
"""

from __future__ import annotations

import functools
import sys
import time

# metric -> (module, attribute path) of each function whose self time it sums
TIMED = {
    "cli.load_s": [("cli", "load_scenario")],
    "cli.render_s": [("cli", "RunReport.to_text"), ("protocols", "Transcript.to_text")],
    "model.keygen_s": [("model", "generate_pairwise_keys")],
    "bounds.bound_s": [("bounds", "broadcast_bound"), ("bounds", "subgroup_bound"), ("bounds", "group_bound")],
    "graph.connect_s": [("graph", "is_connected")],
    "graph.tree_s": [("graph", "maximum_spanning_tree")],
    "graph.flow_s": [("graph", "max_flow")],
    "graph.cut_s": [("graph", "min_st_cut"), ("graph", "min_st_cut_bruteforce")],
    "protocols.self_s": [("protocols", "run_broadcast"), ("protocols", "run_subgroup"),
                         ("protocols", "run_group_key")],
    "protocols.round_s": [("protocols", "single_bit_round")],
    "protocols.replay_s": [("protocols", "replay_key")],
    "secrecy.audit_s": [("secrecy", "verify_independence")],
}

# count metric -> the timed metric whose spans it counts
COUNTED = {
    "bounds.calls": "bounds.bound_s",
    "graph.connect_calls": "graph.connect_s",
    "graph.tree_calls": "graph.tree_s",
    "protocols.replay_calls": "protocols.replay_s",
}


class Tracer:
    """Self-time and call totals per metric, since the last ``reset``."""

    def __init__(self) -> None:
        self.reset()
        # One entry per open span: time spent so far in its traced children.
        self._children: list[float] = []

    def reset(self) -> None:
        self.self_s = dict.fromkeys(TIMED, 0.0)
        self.calls = dict.fromkeys(TIMED, 0)

    def _wrap(self, metric: str, fn):
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[metric] += elapsed - children.pop()
                self.calls[metric] += 1
                if children:
                    children[-1] += elapsed

        return span

    def install(self) -> None:
        """Wrap every function named in TIMED that ``pinkey`` still has."""
        modules = [mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "pinkey" or name.startswith("pinkey."))]
        for metric, targets in TIMED.items():
            for module_name, path in targets:
                owner = sys.modules.get(f"pinkey.{module_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(metric, original)
                if outer:  # a method: patch the class it lives on
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.self_s)
        for count, timed in COUNTED.items():
            out[count] = self.calls[timed]
        return out
