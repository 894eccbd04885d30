"""Benchmark harness for the ``worldsheet`` package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload planar_census --seed 0 \
        --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout.  One run repeats
passes of the workload body in this process for about ``--seconds``
(at least one pass), checks every pass's outputs, and prints as
its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` untraced and traced passes alternate
(at least untraced, traced, untraced) and the metrics are the per-layer
table of ``tracing.py``.  The line
before it records the environment.  Spans, the environment and all
figures are also written under ``.perfbench_out/``.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("planar_census", "smooth_probe", "nonuniq_slices",
                  "cantor_dimension")

# process start + import worldsheet + input generation, in a fresh process
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.make_inputs(sys.argv[3], int(sys.argv[4]))")


def _setup_seconds(workload, seed):
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC, HERE,
                        workload, str(seed)], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, nproc, passes):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "passes": passes,
            "nproc": nproc, "blas_threads": nproc,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "commit": _git_commit()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "worldsheet", "__init__.py")):
        print(f"error: no worldsheet package under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)

    setup_s = _setup_seconds(args.workload, args.seed)

    sys.path.insert(0, SRC)
    import tracing
    import workloads
    import worldsheet
    if not os.path.abspath(worldsheet.__file__).startswith(SRC + os.sep):
        print(f"error: worldsheet imported from {worldsheet.__file__}",
              file=sys.stderr)
        return 2

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref_all = json.load(fh)
    reference = (ref_all[args.workload] if args.seed == ref_all["seed"]
                 else None)

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    inputs = workloads.make_inputs(args.workload, args.seed)
    body = workloads.WORKLOADS[args.workload][1]
    rec = tracing.Recorder()
    items_s = []

    @contextlib.contextmanager
    def item(i):
        rec.item = i
        t0 = time.perf_counter()
        yield
        if not traced_now:
            items_s.append(time.perf_counter() - t0)
        rec.item = None

    untraced_s, traced_s = [], []
    errors, digests, op_counts = [], set(), set()
    start = time.perf_counter()
    traced_now = False
    while True:
        traced_now = bool(args.trace) and len(untraced_s) > len(traced_s)
        undo = tracing.install(rec) if traced_now else None
        t0 = time.perf_counter()
        try:
            outputs, a, f = body(inputs, os.path.join(run_dir, "out"), item)
        finally:
            if undo is not None:
                tracing.restore(undo)
        (traced_s if traced_now else untraced_s).append(
            time.perf_counter() - t0)
        op_counts.add((a, f))
        pass_errors = workloads.check(args.workload, outputs, reference)
        errors += [f"pass {len(untraced_s) + len(traced_s)}: {e}"
                   for e in pass_errors]
        digests.add(json.dumps(outputs, sort_keys=True))
        # stop when less than half a pass is left, so a run lasts about
        # --seconds however long its passes are
        elapsed = time.perf_counter() - start
        n_pass = len(untraced_s) + len(traced_s)
        done = elapsed + elapsed / n_pass / 2 >= args.seconds
        # a traced run also needs an untraced pass after the first, which
        # pays one-off warm-up costs, to measure the tracing overhead
        if done and (not args.trace or (traced_s and len(untraced_s) > 1)):
            break
    if len(digests) > 1:
        errors.append("outputs differ between passes of one run")
    if len(op_counts) > 1:
        errors.append(f"operation counts differ between passes: {op_counts}")
    # every pass repeats the same operations, so each is counted once
    attempted, failed = min(op_counts)

    if args.trace:
        per = tracing.layer_table(rec, traced_s, untraced_s, items_s,
                                  failed / attempted)
        metrics = {name: {"value": per[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        with open(os.path.join(run_dir, "spans.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("name,start,end,parent,item\n")
            for name, t_start, t_end, parent, it, _ in rec.spans:
                fh.write(f"{name},{t_start - start!r},{t_end - start!r},"
                         f"{parent},{'' if it is None else it}\n")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "run_s": {"value": statistics.fmean(untraced_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    env = _environment(args, nproc, len(untraced_s) + len(traced_s))
    result = {"correct": not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"environment": env, "errors": errors,
                   "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
                   "item_s": items_s, "result": result}, fh, indent=1)
        fh.write("\n")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
