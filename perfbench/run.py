"""Layered benchmark for coclass.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``: odd-deep, gf2-session,
big-order, lattice-chain.  Every repetition runs in a fresh Python
process (``child.py``) with a fresh private cache directory under
``perfbench/out``; repetitions run one at a time, so the only
concurrency is BLAS's own threads.  Repetitions are started until the
next one would end past ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics, each the median over the
run's repetitions: ``wall_s`` (first CLI call to last report), ``cpu_s``
(user + system over the same interval, all threads), ``peak_rss_mb``
(the repetition process's peak resident set) and ``setup_s`` (process
spawn until the first call can begin: imports and cache-directory
creation; sampled also by set-up-only processes).

``--trace 1`` alternates untraced and traced repetitions (at least two
traced) and reports the per-layer metrics of ``layers.py``: times are
medians over the traced repetitions, counts must be identical in every
traced repetition, and ``trace.overhead_ratio`` is the traced over the
untraced median wall time.  Spans and one row per (call, level, degree)
are written under ``perfbench/out``.

Every call's stdout is compared byte for byte with the expected report.
A mismatch, a nonzero exit code or an exception is a failed call; the
last stdout line is the JSON result and the exit code is 1 if any call
failed or a count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

TIME_LIMIT = 165.0  # seconds for the whole command, below the 180 s cap
SETUP_PROBES = 4
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_gups"):
        return "Gcell/s"
    if name.endswith("_bytes_max") or name.endswith("_bytes_written"):
        return "B"
    return "count"


class Runner:
    """Starts repetitions of one workload and checks their reports."""

    def __init__(self, workload, seed, out, deadline):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.deadline = deadline
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        COCLASS_CACHE_DIR=str(out / "unused-cache"))
        self.env.pop("COCLASS_TAMPER_LEVEL", None)

    def rep(self, traced=False, setup_only=False):
        """Run one repetition; returns its result dict, or None if the
        process itself failed (every call of it then counts as failed)."""
        k = self.count
        self.count += 1
        workdir = self.out / f"rep{k}"
        result = self.out / f"rep{k}.json"
        cmd = [sys.executable, str(HERE / "child.py"), self.workload,
               str(self.seed), str(workdir), str(result)]
        if traced:
            cmd += ["--trace", str(self.out / f"spans{k}.jsonl")]
        if setup_only:
            cmd.append("--setup-only")
        expected = workloads.calls(self.workload, self.seed)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            proc = None
        finally:
            elapsed = time.monotonic() - t_spawn
            shutil.rmtree(workdir, ignore_errors=True)
        if proc is None or proc.returncode != 0:
            detail = "timed out" if proc is None else proc.stderr[-2000:]
            print(f"repetition {k} failed: {detail}", file=sys.stderr)
            if not setup_only:
                self.attempted += len(expected)
                self.failed += len(expected)
            return None
        data = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        data["setup"] = data["ready"] - t_spawn
        data["elapsed"] = elapsed
        if not setup_only:
            self._check(data["calls"], expected)
        return data

    def _check(self, calls, expected):
        for call, (argv, want) in zip(calls, expected):
            self.attempted += 1
            if call["code"] == 0 and call["stdout"] == want:
                continue
            self.failed += 1
            print(f"call failed: {' '.join(argv)} (exit {call['code']})\n"
                  f"  expected: {want.strip()}\n  got: {call['stdout'].strip()}\n"
                  f"  stderr: {call['stderr'][-1000:]}", file=sys.stderr)

    def more(self, started, seconds, spent, minimum, done):
        """Whether another batch costing ``spent`` fits the time budget."""
        now = time.monotonic()
        if now + spent > self.deadline:
            return False
        return done < minimum or now - started + spent <= seconds


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _environment(args, sample, walls):
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": sample["numpy"] if sample else None,
        "use_numba": sample["use_numba"] if sample else None,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": len(walls),
        "rep_wall_s": [round(w, 4) for w in walls],
    }


def _end_to_end(runner, args):
    runner.rep(setup_only=True)  # warm the byte-code and page caches; untimed
    setups = []
    for _ in range(SETUP_PROBES):
        probe = runner.rep(setup_only=True)
        if probe:
            setups.append(probe["setup"])
    reps = []
    started = time.monotonic()
    spent = 0.0
    while runner.more(started, args.seconds, spent, 1, len(reps)):
        rep = runner.rep()
        if rep is None:
            break
        reps.append(rep)
        setups.append(rep["setup"])
        spent = statistics.median(r["elapsed"] for r in reps)
    if not reps:
        return None, {}, []
    metrics = {
        "wall_s": statistics.median(r["wall"] for r in reps),
        "cpu_s": statistics.median(r["cpu"] for r in reps),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in reps) / 1024,
        "setup_s": statistics.median(setups),
    }
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    return (reps[0], {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            [r["wall"] for r in reps])


def _per_layer(runner, args):
    plain, traced = [], []
    started = time.monotonic()
    spent = 0.0
    while runner.more(started, args.seconds, spent, 2, len(traced)):
        a = runner.rep()
        k = runner.count
        b = runner.rep(traced=True)
        if a is None or b is None:
            break
        spans = [json.loads(line) for line in
                 (runner.out / f"spans{k}.jsonl").read_text().splitlines()]
        b["derived"] = layers.derive(spans, b["wall"])
        plain.append(a)
        traced.append(b)
        spent = statistics.median(x["elapsed"] + y["elapsed"]
                                  for x, y in zip(plain, traced))
    walls = [t["wall"] for t in traced]
    if len(traced) < 2:
        return None, {}, walls, True
    counts = [t["derived"][1] for t in traced]
    repeat_ok = all(c == counts[0] for c in counts)
    if not repeat_ok:
        print("computed counts differ between traced repetitions: "
              + json.dumps(counts), file=sys.stderr)
    times = {name: statistics.median(t["derived"][0][name] for t in traced)
             for name in layers.TIMES}
    overhead = (statistics.median(t["wall"] for t in traced)
                / statistics.median(p["wall"] for p in plain))
    values = layers.per_layer(times, counts[0], overhead)
    rows = _median_rows([t["derived"][2] for t in traced])
    with open(runner.out / "degrees.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps({"workload": args.workload, **row}, sort_keys=True))
            fh.write("\n")
    print("call level order   n   d_n shape   dim K  stacked shape  beta_n+1"
          "  kernel_s radical_s  head_s assembly_s validate_s")
    for r in rows:
        print(f"{r['call']:4d} {r['level']:5d} {r['order']:5d} {r['n']:3d} "
              f"{r['d_rows']:5d}x{r['d_cols']:<5d} {r['dim_k']:6d} "
              f"{r['stacked_rows']:6d}x{r['stacked_cols']:<6d} {r['beta_next']:8d} "
              + " ".join(f"{r[s]:9.4f}" for s in layers.STAGES))
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(values.items())}
    return traced[0], metrics, walls, repeat_ok


def _median_rows(runs):
    """Per-degree rows with each stage time the median over the runs."""
    out = []
    for rows in zip(*runs):
        row = dict(rows[0])
        for key in layers.STAGES:
            row[key] = statistics.median(r[key] for r in rows)
        out.append(row)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "coclass" / "cli.py").is_file():
        print(f"error: no coclass sources at {ROOT / 'src' / 'coclass'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, out, deadline)
    repeat_ok = True
    if args.trace:
        sample, metrics, walls, repeat_ok = _per_layer(runner, args)
    else:
        sample, metrics, walls = _end_to_end(runner, args)
    env = _environment(args, sample, walls)
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    error_rate = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"error_rate {error_rate:.6g} ({runner.failed}/{runner.attempted} calls failed)")
    correct = bool(metrics) and runner.failed == 0 and repeat_ok
    summary = {"correct": correct, "attempted": max(1, runner.attempted),
               "failed": runner.failed if runner.attempted else 1,
               "metrics": metrics}
    (out / "summary.json").write_text(json.dumps({**summary, "env": env}, indent=1))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
