"""One repetition of a workload, in a fresh process.

Usage: child.py WORKLOAD SEED WORKDIR RESULT [--trace SPANS] [--setup-only]

Imports coclass, creates the private cache directory WORKDIR/cache and
records the monotonic clock (the parent subtracts its spawn time to get
set-up time).  Then it runs the workload's CLI calls in order through
``coclass.cli.main`` and writes timings, resource use and every call's
exit code and stdout to RESULT as JSON.  With ``--trace`` the layer
functions are wrapped first and the spans go to SPANS as JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import time
import traceback


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)  # all threads, BLAS included
    return ru.ru_utime + ru.ru_stime


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("workdir")
    ap.add_argument("result")
    ap.add_argument("--trace")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy
    from coclass import cli, kernels

    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(run_id=os.path.basename(args.workdir))
        tracing.install(tracer)
    cache_dir = os.path.join(args.workdir, "cache")
    os.makedirs(cache_dir)
    ready = time.monotonic()
    result = {"ready": ready, "numpy": numpy.__version__,
              "use_numba": bool(kernels.USE_NUMBA)}
    if not args.setup_only:
        calls = []
        cpu0, t0 = _cpu(), time.perf_counter()
        for argv, _expected in workloads.calls(args.workload, args.seed):
            if workloads.uses_cache(argv):
                argv = argv + ["--cache-dir", cache_dir]
            out, err = io.StringIO(), io.StringIO()
            code = None
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception:  # a crashing call is a failed call, not a crashed run
                err.write(traceback.format_exc())
            calls.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                          "stderr": err.getvalue()})
        result.update(wall=time.perf_counter() - t0, cpu=_cpu() - cpu0, calls=calls)
        if tracer is not None:
            tracer.write(args.trace)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
