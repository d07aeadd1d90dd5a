"""Benchmark of the bksverify verifier: fresh-process `verify all` passes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src).  The seed becomes the `seed` key of a generated workload config.
Each pass is a fresh interpreter running `bksverify verify all` with one
worker and one BLAS thread; passes repeat while the next one is expected to
end within S seconds (at least two).

--trace 0 prints the end-to-end metrics: `verify_s` (median CPU time of the
verify call), `setup_s` (median CPU time of a pass process until the CLI is
imported and the config loaded, over extra set-up-only processes and the
passes) and `peak_rss_mb` (median peak resident set of a pass).

--trace 1 runs each pass twice, untraced and with the spans of spans.py, and
prints the per-layer metrics of the traced passes together with the tracing
overhead (traced minus untraced `verify_s`).

Every pass's reports are checked (checks.py); the last stdout line is one
JSON object with `correct`, `attempted` and `failed` (checks of the suite,
summed over passes) and `metrics`.  The exit code is 0 only if every check of
every pass held.  See README.md for the workloads and reference figures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

import checks
from spans import FAMILY_PREFIX, NODE_COUNTED, TRACED, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
FAMILIES = (
    "wedge", "phi-flatness", "cst-unitarity", "pairing", "bks-factor",
    "unitarity", "factorization", "vertical-limit", "continuity", "delta",
    "prequantum",
)
# the program's default grids, pinned here: a change of defaults that drops
# checks then shows as missing keys instead of passing unnoticed
DEFAULT_S_GRID = (0.25, 1.0, 3.0)
DEFAULT_S_PRIME_GRID = (0.0, 0.5, 3.0)

# config keys beyond the program defaults; `seed` and `threads = 1` are added
# to every workload.  The sizes keep a pass to a few seconds, so that a run
# takes the median of several passes (README.md, Workloads).
WORKLOADS = {
    "torus-all": {"group": "torus", "identities": FAMILIES,
                  "s_grid": (0.25, 1.0), "s_prime_grid": (0.0, 0.5),
                  "pairs_per_cell": 1},
    # SU(2) in two workloads: all of its families but delta in one pass
    # take about 16 s, too long for a run to take the median of several
    "su2-spectral": {"group": "su2", "hbar0": 0.25,
                     "identities": ("cst-unitarity", "pairing", "bks-factor",
                                    "unitarity", "factorization"),
                     "s_grid": (0.25, 1.0), "s_prime_grid": (0.5,),
                     "pairs_per_cell": 1, "hl2_points_su2": 16},
    "su2-forms": {"group": "su2",
                  "identities": ("wedge", "phi-flatness", "prequantum")},
    "su3-bks": {"group": "su3", "identities": ("bks-factor", "factorization"),
                "panels": 4},
    # the whole harness on a golden-sized config, for perfbench's own test
    "smoke": {"group": "torus", "s_grid": (0.5, 1.0), "s_prime_grid": (0.0, 1.0),
              "pairs_per_cell": 1,
              "identities": ("pairing", "bks-factor", "unitarity",
                             "factorization", "continuity")},
}
QUADRATURE_KEYS = {"panels", "hl2_points_su2"}

SETUP_PROBES = 1
MIN_PASSES = 2
# a run must end within 180 s; a pass still running at this mark is killed
# and the run fails
DEADLINE_S = 176.0


END_TO_END = {"verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_metrics() -> dict:
    """Per-layer metric name -> unit, in the order they are printed."""
    out = {}
    for short, funcs in TRACED.items():
        for fname in funcs:
            base = f"{short}.{fname}"
            out.update({f"{base}.calls": "count", f"{base}.s": "s",
                        f"{base}.self_s": "s"})
    out.update({f"{FAMILY_PREFIX}{fam}.s": "s" for fam in FAMILIES})
    out["suite.checks"] = "count"
    out.update({f"{label}.nodes": "count" for label in NODE_COUNTED})
    out["quadrature.us_per_node"] = "us"
    out["trace.overhead_s"] = "s"
    return out


def _value(v) -> str:
    return ", ".join(_value(x) for x in v) if isinstance(v, tuple) else str(v)


def config_text(workload: dict, seed: int) -> str:
    lines = ["[run]", f"seed = {seed}", "threads = 1"]
    lines += [f"{k} = {_value(v)}" for k, v in workload.items()
              if k not in QUADRATURE_KEYS]
    lines += ["[quadrature]"]
    lines += [f"{k} = {_value(v)}" for k, v in workload.items()
              if k in QUADRATURE_KEYS]
    return "\n".join(lines) + "\n"


class Bench:
    """One benchmark run: a generated config, a scratch directory, passes."""

    def __init__(self, root: str, name: str, seed: int):
        self.root = root
        spec = WORKLOADS[name]
        self.group = spec["group"]
        self.expected = checks.expected_keys(
            self.group, spec["identities"],
            spec.get("s_grid", DEFAULT_S_GRID),
            spec.get("s_prime_grid", DEFAULT_S_PRIME_GRID))
        self.dir = os.path.join(root, ".perfbench-tmp", f"{name}-{os.getpid()}")
        os.makedirs(self.dir)
        self.cfg = os.path.join(self.dir, "workload.cfg")
        with open(self.cfg, "w", encoding="utf-8") as fh:
            fh.write(config_text(spec, seed))
        self.out = os.path.join(self.dir, "out")
        self.env = dict(os.environ)
        self.env.pop("BKS_VERIFIER_THREADS", None)
        # idle BLAS threads spin and bill CPU time to the pass
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.started = time.monotonic()
        self.problems: list[str] = []
        self.reference_bytes = None
        self.attempted = self.failed = self.extra_keys = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass

    def child(self, *extra) -> dict:
        """Start one pass process and return its pass.json."""
        if os.path.exists(self.out):
            shutil.rmtree(self.out)
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        log = os.path.join(self.dir, "child.log")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               self.cfg, self.out, *extra]
        with open(log, "w", encoding="utf-8") as fh:
            proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                  env=self.env, cwd=self.root, timeout=timeout)
        if proc.returncode != 0:
            with open(log, encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"pass process exited {proc.returncode}:\n{tail}")
        with open(os.path.join(self.out, "pass.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        package = os.path.join(self.root, "src", "bksverify", "__init__.py")
        if result["package"] != os.path.abspath(package):
            raise RuntimeError(f"imported {result['package']}, not {package}")
        return result

    def verify_pass(self, trace_prefix=None) -> dict:
        extra = ("--trace", trace_prefix) if trace_prefix else ()
        result = self.child(*extra)
        with open(os.path.join(self.out, "reports.json"), "rb") as fh:
            raw = fh.read()
        payload = json.loads(raw)
        problems, extra_keys = checks.pass_problems(payload, self.expected, self.group)
        if result["exit_code"] != 0:
            problems.append(f"verify exited {result['exit_code']}")
        if self.reference_bytes is None:
            self.reference_bytes = raw
        elif raw != self.reference_bytes:
            problems.append("reports.json bytes differ between passes")
        self.problems += problems
        self.attempted += len(payload["reports"])
        self.failed += sum(1 for rep in payload["reports"] if not rep["passed"])
        self.extra_keys = extra_keys
        result["checks"] = len(payload["reports"])
        return result


def _repeat(step, seconds: float, at_least: int) -> None:
    """Call step() at least `at_least` times, then while another call is
    expected (from the last one) to end within `seconds` of the start."""
    start = time.monotonic()
    for done in itertools.count(1):
        t = time.monotonic()
        step()
        last = time.monotonic() - t
        if done >= at_least and time.monotonic() - start + last > seconds:
            return


def measure(bench: Bench, seconds: float) -> dict:
    setups = [bench.child("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    _repeat(lambda: passes.append(bench.verify_pass()), seconds, MIN_PASSES)
    setups += [p["setup_s"] for p in passes]
    return {
        "verify_s": median([p["verify_s"] for p in passes]),
        "setup_s": median(setups),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "passes": len(passes),
        "verify_wall_s": median([p["verify_wall_s"] for p in passes]),
    }


def layer_values(summary: dict, checks_per_pass: int) -> dict:
    fns = summary["functions"]
    out = {}
    for short, funcs in TRACED.items():
        for fname in funcs:
            row = fns.get(f"{short}.{fname}", {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in ("calls", "s", "self_s"):
                out[f"{short}.{fname}.{key}"] = row[key]
    for fam in FAMILIES:
        out[f"{FAMILY_PREFIX}{fam}.s"] = fns.get(f"{FAMILY_PREFIX}{fam}", {"s": 0.0})["s"]
    out["suite.checks"] = checks_per_pass
    nodes = 0
    integrate_s = 0.0
    for label in NODE_COUNTED:
        out[f"{label}.nodes"] = summary["nodes"][label]
        nodes += summary["nodes"][label]
        integrate_s += out[f"{label}.s"]
    out["quadrature.us_per_node"] = 1e6 * integrate_s / nodes if nodes else 0.0
    return out


def measure_traced(bench: Bench, seconds: float) -> dict:
    plain, traced, layers = [], [], []

    def step():
        plain.append(bench.verify_pass()["verify_s"])
        prefix = os.path.join(bench.dir, f"spans-{len(traced)}")
        result = bench.verify_pass(prefix)
        traced.append(result["verify_s"])
        layers.append(layer_values(summarize(prefix), result["checks"]))

    _repeat(step, seconds, 1)
    out = {name: median([row[name] for row in layers]) for name in layers[0]}
    out["trace.overhead_s"] = median(traced) - median(plain)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bksverify", "cli.py")):
        print("perfbench: run from a checkout root holding src/bksverify",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: the seed must be nonnegative", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the pass process it is waiting on before the scratch dir is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(root, args.workload, args.seed)
    try:
        if args.trace:
            values, units = measure_traced(bench, args.seconds), per_layer_metrics()
        else:
            values, units = measure(bench, args.seconds), END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {bench.attempted} checks attempted, "
          f"{bench.failed} failed, {bench.extra_keys} beyond the named ones")
    for name, unit in units.items():
        print(f"  {name:<48} {values[name]:>14.6g} {unit}")
    if "verify_wall_s" in values:
        print(f"  {values['passes']} passes; verify wall time, median "
              f"{values['verify_wall_s']:.6g} s")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
