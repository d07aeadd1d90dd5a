"""One fresh-interpreter pass of the benchmark.

    python3 perfbench/child.py CONFIG OUT [--setup-only] [--trace PREFIX]

Times are the CPU time of this process (user + system, all threads), not
wall time: on a shared virtual machine the wall clock also counts the time
the host gives the cores to others, which swings by tens of percent between
runs.  ``setup_s`` is the CPU time from the start of the process until
numpy, scipy, mpmath and ``bksverify.cli`` are imported and CONFIG is
loaded.  Unless ``--setup-only`` is given, the pass then times one
``bksverify verify all --config CONFIG --out OUT`` call (``verify_s``; its
wall time is kept as ``verify_wall_s``).  With ``--trace`` the listed
functions are wrapped before that call and the spans are written to
PREFIX.json / PREFIX.bin after it.  The pass's figures go to OUT/pass.json.
"""

import json
import os
import resource
import sys
import time


def main(argv) -> int:
    cfg_path, out_dir = argv[0], argv[1]
    import bksverify
    import bksverify.cli as cli
    from bksverify import config

    config.load_config(cfg_path)
    result = {"setup_s": time.process_time(),
              "package": os.path.abspath(bksverify.__file__)}
    os.makedirs(out_dir, exist_ok=True)
    if "--setup-only" not in argv:
        recorder = None
        if "--trace" in argv:
            from spans import Recorder

            recorder = Recorder()
            recorder.install()
        wall, cpu = time.perf_counter(), time.process_time()
        # cli.main is looked up here, after install may have rebound it
        result["exit_code"] = cli.main(
            ["verify", "all", "--config", cfg_path, "--out", out_dir])
        result["verify_s"] = time.process_time() - cpu
        result["verify_wall_s"] = time.perf_counter() - wall
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None:
            recorder.dump(argv[argv.index("--trace") + 1])
    with open(os.path.join(out_dir, "pass.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
