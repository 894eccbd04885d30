"""SHA-256 of every output of the sample scenarios.

Runs each ``scenarios/*.json`` through ``cli.run_scenario`` into a
temporary directory and prints one line ``sha256  <scenario>/<file>``
per output file, skipping ``run_meta.json`` (it holds wall-clock times).
The package is imported from ``src/`` of the checkout that holds this
script, so two checkouts can be compared by diffing their output:

    python tools/scenario_digests.py > digests.txt
"""

from __future__ import annotations

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

from worldsheet import cli  # noqa: E402


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


if __name__ == "__main__":
    for digest, name in scenario_digests():
        print(f"{digest}  {name}")
