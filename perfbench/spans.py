"""In-memory span recorder for the traced pass of the benchmark.

The recorder wraps public functions of the ``bksverify`` modules from the
outside: every module attribute bound to a listed function (including the
``from ... import name`` copies in other modules) is replaced by a wrapper
that appends one span (name, start, end, parent) to flat arrays.  Nothing is
written while the suite runs; ``dump`` writes the arrays once at the end and
``summarize`` turns them into per-function calls, inclusive and self time.

Spans nest on one call stack, so the suite must run on a single thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# module -> public functions whose calls are recorded
TRACED = {
    "cli": ("main",),
    "config": ("load_config",),
    "suite": ("build_jobs", "run_suite", "render_json", "emit_table"),
    "pairing": (
        "char_gaussian_log", "quantum_pair", "vertical_pair", "verify_unitarity",
        "continuity_check", "preq_norm_sq", "verify_delta_identity",
        "verify_delta_two",
    ),
    "heat": ("random_band_limited", "hl2_inner_quadrature", "l2_inner"),
    "quadrature": (
        "integrate_algebra", "integrate_algebra_log", "cartan_quadrature",
        "hermite_quadrature", "weyl_constant",
    ),
    "halfform": ("eta", "phi", "wedge_density", "wedge_density_det"),
    "groups": (
        "root_values", "group_exp", "wigner_matrix", "character_element",
        "weights_with_multiplicities", "enumerate_irreps",
    ),
}

# integrators whose node count is read from the rule they are handed
NODE_COUNTED = ("quadrature.integrate_algebra", "quadrature.integrate_algebra_log")

FAMILY_PREFIX = "suite.family."


def rule_nodes(quad) -> int:
    """Integrand evaluations a rule asks for: fine plus companion nodes,
    or the Monte Carlo sample count."""
    if quad.backend == "monte-carlo":
        return int(quad.samples)
    return int(len(quad.nodes) + len(quad.coarse_nodes))


class Recorder:
    """Flat span arrays plus per-integrator node counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.nodes = {label: 0 for label in NODE_COUNTED}

    def _name_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def wrap(self, fn, label: str):
        nid = self._name_id(label)
        clock = time.perf_counter
        stack = self._stack
        push, pop = stack.append, stack.pop
        add_name, add_parent = self.name.append, self.parent.append
        add_start, add_end = self.start.append, self.end.append
        ends = self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            push(i)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                pop()

        if label not in NODE_COUNTED:
            return traced
        nodes = self.nodes

        @functools.wraps(fn)
        def traced_counting(*args, **kwargs):
            nodes[label] += rule_nodes(args[1] if len(args) > 1 else kwargs["quad"])
            return traced(*args, **kwargs)

        return traced_counting

    def install(self) -> None:
        """Rebind every listed function at every bksverify module that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and n.split(".")[0] == "bksverify"]
        for short, funcs in TRACED.items():
            owner = sys.modules[f"bksverify.{short}"]
            for fname in funcs:
                original = getattr(owner, fname)
                wrapper = self.wrap(original, f"{short}.{fname}")
                if fname == "build_jobs":
                    wrapper = self._family_spans(wrapper, owner)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _family_spans(self, build_jobs, suite):
        # each job thunk becomes a span named after its identity family
        @functools.wraps(build_jobs)
        def traced_build_jobs(*args, **kwargs):
            jobs = build_jobs(*args, **kwargs)
            return [
                suite.Job(key=job.key, thunk=self.wrap(
                    job.thunk, FAMILY_PREFIX + job.key.split("/", 1)[0]))
                for job in jobs
            ]

        return traced_build_jobs

    def dump(self, prefix: str) -> None:
        """Write the spans once: ``<prefix>.json`` (names, node counts) and
        ``<prefix>.bin`` (name, parent, start, end arrays back to back)."""
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "nodes": self.nodes,
                       "spans": len(self.start)}, fh)
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def summarize(prefix: str) -> dict:
    """Per span name: calls, inclusive seconds and self seconds (duration
    minus the time covered by direct child spans)."""
    import numpy as np

    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    isize, dsize = array("l").itemsize, array("d").itemsize
    raw = np.fromfile(prefix + ".bin", dtype=np.uint8)
    if raw.size != n * 2 * (isize + dsize):
        raise ValueError("span file does not match its index")
    ints = raw[: 2 * n * isize].view(f"i{isize}")
    floats = raw[2 * n * isize:].view("f8")
    name, parent = ints[:n], ints[n:]
    dur = floats[n:] - floats[:n]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child
    k = len(meta["names"])
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=self_time, minlength=k)
    out = {
        label: {"calls": int(calls[i]), "s": float(total[i]),
                "self_s": float(own[i])}
        for i, label in enumerate(meta["names"])
    }
    return {"functions": out, "nodes": meta["nodes"], "spans": n}
