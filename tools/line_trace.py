"""List the lines of ``src/worldsheet`` that a pytest run never executes.

    python tools/line_trace.py [pytest args]

Runs ``python -m pytest [pytest args]`` with a generated
``sitecustomize.py`` first on ``PYTHONPATH``, so the test process and
every Python subprocess it starts (the CLI tests run the CLI in one)
trace the lines they run in ``src/worldsheet`` and write them out at
exit.  The executable lines of each module are the line starts
(``dis.findlinestarts``) of its compiled code objects.  Prints one line
``path:line: source`` per executable line that no process ran, then
each file's count of such lines and the total, and exits with pytest's
status.  Traced, the suite runs about 1.4 times as long (121 s against
88 s on 2 cores).
"""

from __future__ import annotations

import dis
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# imports nothing beyond the standard modules python starts with, so the
# CLI tests that check which modules a run loads see no change
SITECUSTOMIZE = '''\
import atexit, os, sys, threading
_root = os.environ["LINE_TRACE_ROOT"]
_out = os.environ["LINE_TRACE_OUT"]
_hits = set()

def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local

def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_root):
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
        return _local
    return None

def _dump():
    with open(os.path.join(_out, "hits-%d.txt" % os.getpid()), "w") as fh:
        fh.writelines("%s\\t%d\\n" % hit for hit in _hits)

atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
'''


def executable_lines(path):
    """The line numbers at which the compiled code of ``path`` starts a
    line, over the module and every nested code object."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(n for _, n in dis.findlinestarts(co) if n)
        todo.extend(c for c in co.co_consts if hasattr(c, "co_code"))
    return lines


def trace_run(cmd, root, env):
    """Run ``cmd`` in the environment ``env`` with every Python process
    tracing the files under ``root``; returns (exit status,
    {path: sorted lines never run})."""
    root = os.path.abspath(root)
    with tempfile.TemporaryDirectory() as tmp:
        site, out = os.path.join(tmp, "site"), os.path.join(tmp, "hits")
        os.makedirs(site)
        os.makedirs(out)
        with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
            fh.write(SITECUSTOMIZE)
        env = dict(env)
        env["PYTHONPATH"] = os.pathsep.join(
            [site] + [p for p in [env.get("PYTHONPATH")] if p])
        env["LINE_TRACE_ROOT"] = root + os.sep
        env["LINE_TRACE_OUT"] = out
        status = subprocess.run(cmd, env=env).returncode
        hits = set()
        for name in glob.glob(os.path.join(out, "hits-*.txt")):
            with open(name, encoding="utf-8") as fh:
                for row in fh:
                    path, line = row.rstrip("\n").rsplit("\t", 1)
                    hits.add((os.path.abspath(path), int(line)))
    missed = {}
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"),
                                 recursive=True)):
        lines = sorted(n for n in executable_lines(path) if (path, n) not in hits)
        if lines:
            missed[path] = lines
    return status, missed


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    status, missed = trace_run([sys.executable, "-m", "pytest", *args],
                               os.path.join(src, "worldsheet"), env)
    for path, lines in missed.items():
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        for n in lines:
            print(f"{rel}:{n}: {text[n - 1].strip()}")
    for path, lines in missed.items():
        print(f"{len(lines):5d}  {os.path.relpath(path, ROOT)}")
    print(f"{sum(map(len, missed.values())):5d}  lines never run")
    return status


if __name__ == "__main__":
    sys.exit(main())
