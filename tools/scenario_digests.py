"""SHA-256 of every output of the sample scenarios or benchmark workloads.

Runs each ``scenarios/*.json`` through ``cli.run_scenario`` into a
temporary directory and prints one line ``sha256  <scenario>/<file>``
per output file, skipping ``run_meta.json`` (it holds wall-clock times).
With ``--workloads`` it instead runs one pass of each benchmark workload
of ``perfbench/workloads.py`` at seeds 0 and 1 and prints one line
``sha256  <workload>/seed<N>  <counts>`` per pass: the digest of the
pass's outputs, ``attempted`` and ``failed`` as sorted JSON, then the
pass's exact counts (the workload's ``*_counts`` of its outputs, with
``attempted`` and ``failed``) as sorted JSON.  A change that moves float
bits but no count shows as a changed digest beside unchanged counts.
The package is imported from ``src/`` of the checkout that holds this
script, so two checkouts can be compared by diffing their output:

    python tools/scenario_digests.py > digests.txt
    python tools/scenario_digests.py --workloads > workload_digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.join(ROOT, "perfbench"))

from worldsheet import cli  # noqa: E402

WORKLOAD_SEEDS = (0, 1)


def scenario_digests():
    """(sha256, "<scenario>/<file>") of every output, in sorted order."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.json"))):
            stem = os.path.splitext(os.path.basename(path))[0]
            with open(path, encoding="utf-8") as fh:
                scenario = json.load(fh)
            run_dir = os.path.join(tmp, stem)
            with contextlib.redirect_stderr(io.StringIO()):
                cli.run_scenario(scenario, run_dir)
            for fname in sorted(os.listdir(run_dir)):
                if fname == "run_meta.json":
                    continue
                with open(os.path.join(run_dir, fname), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                out.append((digest, f"{stem}/{fname}"))
    return out


def workload_digests(names=None):
    """(sha256, "<workload>/seed<N>", counts) of one pass of each
    benchmark workload (all of them by default) at each of
    WORKLOAD_SEEDS; counts is the pass's exact counts as sorted JSON."""
    import workloads
    out = []
    for name in names or list(workloads.WORKLOADS):
        _, run_pass, _, counts = workloads.WORKLOADS[name]
        for seed in WORKLOAD_SEEDS:
            inputs = workloads.make_inputs(name, seed)
            with tempfile.TemporaryDirectory() as tmp, \
                    contextlib.redirect_stderr(io.StringIO()):
                outputs, attempted, failed = run_pass(
                    inputs, tmp, lambda i: contextlib.nullcontext())
            raw = json.dumps({"outputs": outputs, "attempted": attempted,
                              "failed": failed}, sort_keys=True)
            exact = dict(counts(outputs), attempted=attempted, failed=failed)
            out.append((hashlib.sha256(raw.encode()).hexdigest(),
                        f"{name}/seed{seed}",
                        json.dumps(exact, sort_keys=True)))
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", action="store_true",
                        help="digest the benchmark workloads' pass outputs "
                             "at seeds 0 and 1 instead of the scenarios")
    digests = (workload_digests() if parser.parse_args().workloads
               else scenario_digests())
    for row in digests:
        print("  ".join(row))
