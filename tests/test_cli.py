import json
import os
import subprocess
import sys

import numpy as np
import pytest

import worldsheet
from worldsheet import cli, serialize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(tmp_path, scenario, name="scen.json", extra=()):
    path = tmp_path / name
    path.write_text(json.dumps(scenario))
    out = tmp_path / ("out_" + name.replace(".json", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "worldsheet.cli", "--scenario", str(path),
         "--out", str(out), *extra],
        capture_output=True, text=True)
    report = None
    rp = out / "report.json"
    if rp.exists():
        report = json.loads(rp.read_text())
    return proc.returncode, report, out


def test_evolve_circle_collapse(tmp_path):
    scen = {"name": "circle-evolve", "task": "evolve",
            "builder": {"name": "circle"},
            "params": {"times": [0.0, np.pi / 3, np.pi / 2], "samples": 128}}
    code, report, out = run_cli(tmp_path, scen)
    assert code == 0
    radii = [s["max_radius"] for s in report["slices"]]
    assert abs(radii[0] - 1.0) < 1e-9
    assert abs(radii[1] - 0.5) < 1e-9
    assert radii[2] < 1e-9
    assert (out / "slice_000.csv").exists()


def test_detect_hopf(tmp_path):
    scen = {"name": "hopf-detect", "task": "detect",
            "builder": {"name": "hopf"}}
    code, report, _ = run_cli(tmp_path, scen)
    assert code == 0
    assert report["global_immersion"] is True
    assert abs(report["margin"] - np.sqrt(2)) < 1e-9


def test_detect_circle_reports_extinction_slice(tmp_path):
    scen = {"name": "circle-detect", "task": "detect",
            "builder": {"name": "circle"}}
    code, report, _ = run_cli(tmp_path, scen)
    assert code == 0
    comp = report["components"][0]
    assert comp["kind"] == "full_time_slice"
    assert comp["sing_star"] == "no"
    assert min(abs(t - np.pi / 2) for t in comp["slice_times"]) < 0.05


def test_diagram_hopf_linking(tmp_path):
    scen = {"name": "hopf-diagram", "task": "diagram",
            "builder": {"name": "hopf"}, "params": {"samples": 512}}
    code, report, out = run_cli(tmp_path, scen)
    assert code == 0
    assert abs(report["linking"]["value"]) == 1
    assert report["linking"]["residual"] <= 0.1
    assert (out / "diagram.csv").exists()


def test_probe_requires_seed(tmp_path):
    scen = {"name": "probe", "task": "probe", "builder": {"name": "hopf"},
            "params": {"trials": 2}}
    code, report, _ = run_cli(tmp_path, scen)
    assert code == 2


def test_probe_with_seed(tmp_path):
    scen = {"name": "probe", "task": "probe", "builder": {"name": "hopf"},
            "params": {"trials": 3}, "seed": 5}
    code, report, _ = run_cli(tmp_path, scen)
    assert code == 0
    assert report["outcomes"]["smooth"] == 3
    assert 0.0 <= report["closure_defect_max"] <= 1e-12 * 2.0 * np.pi


def test_unknown_task_exit_one(tmp_path):
    code, _, _ = run_cli(tmp_path, {"name": "x", "task": "frobnicate",
                                    "builder": {"name": "circle"}})
    assert code == 1


def test_bad_builder_exit_two(tmp_path):
    code, _, _ = run_cli(tmp_path, {"name": "x", "task": "detect",
                                    "builder": {"name": "nope"}})
    assert code == 2


def test_unreliable_dimension_exit_three(tmp_path):
    # a wavy pair has a finite singular set; the slope over a broad ladder
    # is degenerate and must be flagged rather than reported
    scen = {"name": "wavy-dim", "task": "dimension",
            "builder": {"name": "wavy_pair"},
            "params": {"which": "sing",
                       "scales": [0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625]}}
    code, report, _ = run_cli(tmp_path, scen)
    assert code == 3


def test_rerun_byte_identical(tmp_path):
    scen = {"name": "d", "task": "detect", "builder": {"name": "hopf"}}
    p = tmp_path / "s.json"
    p.write_text(json.dumps(scen))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        subprocess.run([sys.executable, "-m", "worldsheet.cli", "--scenario",
                        str(p), "--out", str(out)], capture_output=True)
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


# imports the package in a fresh interpreter, optionally runs one sample
# scenario, and prints the scipy modules then loaded
SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import worldsheet, worldsheet.cli
if len(sys.argv) > 2:
    with open(sys.argv[2], encoding="utf-8") as fh:
        code = worldsheet.cli.run_scenario(json.load(fh), sys.argv[3])
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


@pytest.mark.parametrize("scenario", [None, "circle_evolve.json",
                                      "cantor_k1_dimension.json",
                                      "cantor_k1_detect.json",
                                      "hopf_detect.json",
                                      "hopf_probe.json"])
def test_scipy_not_loaded(tmp_path, scenario):
    src = os.path.dirname(os.path.dirname(os.path.abspath(worldsheet.__file__)))
    args = [] if scenario is None else [
        os.path.join(ROOT, "scenarios", scenario), str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, src, *args],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []


# builds, searches and classifies one random planar gauge in a fresh
# interpreter, and prints the scipy modules then loaded
CENSUS_SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from worldsheet import catalog, singular
from worldsheet.errors import PreconditionError, UnderResolvedError
g = catalog.random_planar_gauge(0)
rep = singular.find_antipodal_pairs(g)
assert rep.components
for comp in rep.components:
    try:
        singular.classify_sing_star(g, comp)
    except (PreconditionError, UnderResolvedError):
        pass
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def test_planar_census_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(worldsheet.__file__)))
    proc = subprocess.run([sys.executable, "-c", CENSUS_SCIPY_PROBE, src],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []


COUPLE_EVOLVE = {"name": "couple-evolve", "task": "evolve",
                 "couple": {"gamma0": {"kind": "circle", "radius": 1.0},
                            "v0": {"kind": "normal_scale", "scale": 0.5}},
                 "params": {"times": [0.0], "samples": 64}}


def test_couple_evolve_loads_no_scipy(tmp_path):
    # the couple needs normalize and a bake, both numpy alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(worldsheet.__file__)))
    path = tmp_path / "couple_evolve.json"
    path.write_text(json.dumps(COUPLE_EVOLVE), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, src, str(path),
                           str(tmp_path / "out")],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_couple_scenario(tmp_path):
    code, report, _ = run_cli(tmp_path, COUPLE_EVOLVE)
    assert code == 0
    assert abs(report["slices"][0]["max_radius"] - 1.0) < 1e-6


def test_couple_scenario_fourier_velocity(tmp_path):
    scen = {"name": "couple-fourier", "task": "detect",
            "couple": {"gamma0": {"kind": "circle", "radius": 1.0},
                       "v0": {"kind": "fourier", "mean": 0.3,
                              "modes": [[2, 0.15, 0.0], [3, 0.0, 0.1]]}},
            "params": {"classify": False}}
    code, report, _ = run_cli(tmp_path, scen)
    assert code == 0
    assert report["n_components"] >= 1


def test_nonuniq_task(tmp_path):
    scen = {"name": "nonuniq", "task": "nonuniq",
            "params": {"variant": "pair", "coincidence_times": 2}}
    code, report, _ = run_cli(tmp_path, scen)
    assert code == 0
    rows = report["distances"]
    assert rows[0]["slice_distance"] <= 1e-6
    assert rows[-1]["t"] == 0.5
    assert rows[-1]["slice_distance"] >= 0.01


def test_nonuniq_same_surface_task(tmp_path):
    scen = {"name": "same", "task": "nonuniq",
            "params": {"variant": "same_surface", "times": 3}}
    code, report, _ = run_cli(tmp_path, scen)
    assert code == 0
    assert report["variant"] == "same_surface"
    assert len(report["distances"]) == 3
    assert all(row["slice_distance"] <= 1e-6 for row in report["distances"])


def test_nonuniq_unknown_variant_exit_one(tmp_path):
    scen = {"name": "typo", "task": "nonuniq", "params": {"variant": "pairs"}}
    code, report, _ = run_cli(tmp_path, scen)
    assert code == 1
    assert report is None


def test_gauge_roundtrip_through_spec(tmp_path):
    from worldsheet import catalog
    from worldsheet.serialize import gauge_from_spec, gauge_to_spec
    g = catalog.circle_gauge()
    spec = gauge_to_spec(g, samples=2048)
    g2 = gauge_from_spec(spec)
    xs = np.linspace(0, g.E0, 257)
    assert np.abs(g2.a.tangent(xs) - g.a.tangent(xs)).max() < 1e-6
    assert abs(g2.E0 - g.E0) < 1e-12


def test_gauge_spec_with_smoothness_keys_still_loads():
    # specs written before the "smoothness" key was dropped carry it on
    # each curve; it is ignored
    from worldsheet import catalog
    spec = serialize.gauge_to_spec(catalog.circle_gauge(), samples=256)
    assert all("smoothness" not in spec[c] for c in ("a", "b"))
    old = json.loads(json.dumps(spec))
    old["a"]["smoothness"] = old["b"]["smoothness"] = 3
    g_old = serialize.gauge_from_spec(old)
    g_new = serialize.gauge_from_spec(spec)
    xs = np.random.default_rng(3).uniform(0.0, g_new.E0, 500)
    for c_old, c_new in ((g_old.a, g_new.a), (g_old.b, g_new.b)):
        assert np.array_equal(c_old.tangent(xs), c_new.tangent(xs))
        assert np.array_equal(c_old.tangent_derivative(xs),
                              c_new.tangent_derivative(xs))


@pytest.mark.parametrize("v0, E0", [
    ({"kind": "zero"}, 6.2983),
    ({"kind": "normal_scale", "scale": 0.4, "wobble": 0.3}, 6.9153),
    ({"kind": "fourier", "mean": 0.3, "modes": [[1, 0.1, 0.05]]}, 6.6399),
])
def test_fourier_loop_couple_spec(v0, E0):
    gamma0 = {"kind": "fourier_loop", "n": 3,
              "modes": [[2, [0.05, 0.02, 0.01], [0.0, 0.03, 0.02]]]}
    g = serialize.gauge_from_spec({"couple": {"gamma0": gamma0, "v0": v0}})
    xs = np.linspace(0, g.E0, 1000, endpoint=False)
    for curve in (g.a, g.b):
        assert np.abs(np.linalg.norm(curve.tangent(xs), axis=1) - 1).max() < 1e-9
    assert g.min_sum_norm() > 0.5
    assert abs(g.E0 - E0) < 1e-4


@pytest.mark.parametrize("flag", ["--tol", "--parallel"])
def test_removed_flag_rejected(tmp_path, capsys, flag):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"name": "hopf-detect", "task": "detect",
                                "builder": {"name": "hopf"}}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--scenario", str(scen), "--out", str(tmp_path / "out"),
                  flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_write_csv_float_array_matches_per_cell_text(tmp_path):
    values = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, 1e300, 0.1 + 0.2,
              -5e-324, 1.0, 5e-324]
    header = ["p_0", "p_1", "p_2", "p_3"]
    # empty, one row, and around the 1024-row chunk edge
    for n_rows in (0, 1, 1023, 1024, 1025, 5000):
        rows = np.resize(np.array(values), n_rows * 4).reshape(n_rows, 4)
        serialize.write_csv(tmp_path / "fast.csv", header, rows)
        # a list of rows takes the per-cell repr(float(v)) path
        serialize.write_csv(tmp_path / "cells.csv", header, list(rows))
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "cells.csv").read_bytes()
        lines = fast.split(b"\r\n")
        assert lines[0] == b"p_0,p_1,p_2,p_3"
        assert len(lines) == n_rows + 2 and lines[-1] == b""
        if n_rows:
            assert lines[1] == b"-0.0,0.0,nan,inf"
        if n_rows >= 3:
            assert lines[3] == b"-5e-324,1.0,5e-324,-0.0"


def test_write_csv_mixed_repeat_columns_match_per_cell_text(tmp_path):
    # per column: few distinct values (text rendered once and gathered),
    # exactly half distinct (the edge of that path), and all distinct
    n_rows = 2500
    specials = np.array([-0.0, 0.0, np.nan, -np.nan, 0.1, 1e300, -5e-324])
    repeat = np.resize(specials, n_rows)
    half = np.repeat(np.arange(n_rows // 2) * 0.1 - 3.0, 2)
    unique = np.linspace(-1.0, 1.0, n_rows) ** 3
    unique[:3] = [-0.0, 0.0, np.nan]
    rows = np.column_stack([repeat, half, unique, repeat[::-1]])
    header = ["r", "h", "u", "r2"]
    serialize.write_csv(tmp_path / "fast.csv", header, rows)
    serialize.write_csv(tmp_path / "cells.csv", header, list(rows))
    fast = (tmp_path / "fast.csv").read_bytes()
    assert fast == (tmp_path / "cells.csv").read_bytes()
    assert fast.split(b"\r\n")[1:4] == [b"-0.0,-3.0,-0.0,-0.0",
                                         b"0.0,-3.0,0.0,-5e-324",
                                         b"nan,-2.9,nan,1e+300"]
