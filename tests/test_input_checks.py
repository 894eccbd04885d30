"""Every public input check raises on an input that breaks it."""

import dataclasses

import numpy as np
import pytest

from worldsheet import catalog, constructions, serialize, singular, topology
from worldsheet.constructions import CantorSpec
from worldsheet.curves import (AngleTangent, CallableTangent,
                               SphereSamplesTangent, UnitSpeedCurve)
from worldsheet.dimension import PointCloud, box_count
from worldsheet.errors import PreconditionError
from worldsheet.gauge import AdmissibleCouple, OrthogonalGauge, equivalent_gauges


def _period_one_line():
    rep = CallableTangent(
        lambda x, order: np.stack([np.full_like(x, 1.0 - order),
                                   np.zeros_like(x)], axis=-1), 1.0, 2)
    return UnitSpeedCurve(rep, np.zeros(2))


def _parallel_velocity_couple():
    """The unit circle with v0 = gamma0' / 2, not orthogonal to gamma0'."""
    def fields(x):
        tangent = np.stack([-np.sin(x), np.cos(x)], axis=-1)
        return tangent, 0.5 * tangent

    return AdmissibleCouple(fields, 2.0 * np.pi, 2, np.array([1.0, 0.0]))


def _scaled_circle(scale, period):
    """``scale`` times the unit circle's tangent, read with ``period``, as
    a CallableTangent (the checks read order 0 only)."""
    rep = CallableTangent(
        lambda x, order: scale * np.stack([-np.sin(x), np.cos(x)], axis=-1),
        period, 2)
    return UnitSpeedCurve(rep, np.array([1.0, 0.0]))


def _reversed_circle():
    """The unit circle run backwards, so its tangent is minus the circle's."""
    rep = AngleTangent(lambda x: x - 0.5 * np.pi, 2.0 * np.pi,
                       alpha_prime=lambda x: np.ones_like(x))
    return UnitSpeedCurve(rep, np.array([1.0, 0.0]))


def _cantor_spec(**changed):
    """A valid k = 1 spec with some fields changed."""
    spec = dict(k=1, mu=0.5, nu=0.75, delta=0.5, alpha=0.5, beta=0.5, depth=8)
    return CantorSpec(**{**spec, **changed})


def _radius_two_circle():
    rep = AngleTangent(lambda x: 0.5 * x + 0.5 * np.pi, 4.0 * np.pi,
                       alpha_prime=lambda x: np.full_like(x, 0.5))
    return UnitSpeedCurve(rep, np.array([2.0, 0.0]))


def _covered_diagram(dim, n):
    """A diagram whose a'-curve samples every one of the n projection
    candidates on S^{dim-1}, so none is clear of it, and whose -b'-curve
    is 3 normalized midpoints of a candidate and its nearest neighbour."""
    cands = topology._candidate_centers(dim, n)
    mids = []
    for i in range(3):
        d2 = ((cands - cands[i]) ** 2).sum(axis=1)
        d2[i] = np.inf
        mid = cands[i] + cands[np.argmin(d2)]
        mids.append(mid / np.linalg.norm(mid))
    return topology.synthetic_diagram(cands, np.array(mids))


CHECKS = {
    "cantor-mode": (lambda: CantorSpec.single_mode(2, m=2),
                    "mode m must exceed the smoothness k"),
    # a valid spec whose beta intervals touch at depth 8
    "cantor-overlap": (lambda: constructions.cantor_function(
        _cantor_spec(beta=1e-17)), "overlapping Cantor intervals"),
    "cantor-ratios": (lambda: _cantor_spec(alpha=1.5).validate(),
                      "Cantor ratios must lie in"),
    "cantor-mu": (lambda: _cantor_spec(mu=1.5).validate(), "mu must lie in"),
    "cantor-nu": (lambda: _cantor_spec(nu=1.2).validate(),
                  "nu must be below 1"),
    "cantor-relation": (lambda: _cantor_spec(nu=0.7).validate(),
                        "mu = nu violated"),
    "nonuniq-n": (lambda: constructions.nonuniqueness_pair(n=2),
                  "requires n >= 3"),
    "nonuniq-delta-range": (lambda: constructions.nonuniqueness_pair(delta=0.6),
                            "delta must lie in"),
    "nonuniq-delta-dwell": (lambda: constructions.nonuniqueness_pair(delta=0.1),
                            "delta must not exceed"),
    "antipodal-grid": (lambda: singular.find_antipodal_pairs(
        catalog.circle_gauge(), grid_n=32), "grid_n must be at least 64"),
    "angle-state-planar": (lambda: singular.angle_state(catalog.hopf_gauge()),
                           "requires a planar gauge"),
    "time-extent-planar": (lambda: singular.sing_star_time_extent(
        catalog.hopf_gauge()), "requires a planar gauge"),
    "diagram-cap": (lambda: topology.diagram(catalog.hopf_gauge(), m=8192),
                    "capped at 4096"),
    "diagram-no-samples": (lambda: topology.diagram(catalog.hopf_gauge(), m=0),
                           "at least one sample"),
    "winding-on-s3": (lambda: topology.winding_number(
        topology.diagram(catalog.hopf_gauge(), m=256)), "diagram on S\\^2"),
    "linking-on-s2": (lambda: topology.linking_number(
        topology.diagram(catalog.meridian_loops_gauge(), m=256)),
        "diagram on S\\^3"),
    # the wavy pair's tangent images cross, so a' and -b' meet on S^2
    "winding-intersecting": (lambda: topology.winding_number(
        topology.diagram(catalog.wavy_pair_gauge(), m=256)),
        "diagram curves intersect"),
    "linking-intersecting": (lambda: topology.linking_number(
        dataclasses.replace(topology.diagram(catalog.hopf_gauge(), m=256),
                            disjoint=False)), "diagram curves intersect"),
    "extinction-angle-rep": (lambda: constructions.extinction_pair(
        _scaled_circle(1.0, 2.0 * np.pi), catalog.circle_curve()),
        "angle-represented"),
    "extinction-periods": (lambda: constructions.extinction_pair(
        catalog.circle_curve(), _radius_two_circle()),
        "must share their period"),
    "diagram-empty-curve": (lambda: topology.synthetic_diagram(
        np.empty((0, 3)), np.eye(3)), "must be nonempty"),
    "winding-no-clear-center": (lambda: topology.winding_number(
        _covered_diagram(3, 4096)),
        "no projection center with required clearance"),
    "linking-no-clear-center": (lambda: topology.linking_number(
        _covered_diagram(4, 8192)),
        "no projection center with required clearance"),
    "transversal-n": (lambda: topology.transversal_count(catalog.circle_gauge()),
                      "requires n = 3"),
    "cloud-empty": (lambda: PointCloud(np.empty((0, 2))), "nonempty"),
    "box-count-repeated-scale": (lambda: box_count(
        PointCloud(np.random.default_rng(0).uniform(size=(64, 2))),
        [0.2, 0.1, 0.1, 0.05, 0.02]), "strictly decreasing"),
    "gauge-dimensions": (lambda: OrthogonalGauge(
        catalog.circle_curve(), catalog.hopf_gauge().a),
        "different dimensions"),
    "gauge-periods": (lambda: OrthogonalGauge(
        catalog.circle_curve(), _period_one_line()), "different periods"),
    "couple-orthogonal": (lambda: _parallel_velocity_couple().validate(),
                          "not orthogonal"),
    "equivalence-sigma0": (lambda: equivalent_gauges(
        catalog.circle_gauge(), catalog.circle_gauge(), 0.0, np.zeros(2), 0),
        "sigma0 must be"),
    "curve-norm": (lambda: _scaled_circle(2.0, 2.0 * np.pi).validate(),
                   "tangent norm deviates"),
    "curve-periodic": (lambda: _scaled_circle(1.0, 1.0).validate(),
                       "tangent not periodic"),
    "gauge-antipodal-diagonal": (lambda: OrthogonalGauge(
        catalog.circle_curve(), _reversed_circle()).validate(),
        "a' \\+ b' vanishes"),
    "curve-basepoint": (lambda: UnitSpeedCurve(catalog.circle_curve().rep,
                                               np.zeros(3)),
                        "basepoint dimension mismatch"),
    "spec-curve-kind": (lambda: serialize.curve_from_spec({"kind": "oval"}),
                        "unknown curve kind"),
    "spec-gamma0-kind": (lambda: serialize.couple_from_spec(
        {"gamma0": {"kind": "oval"}}), "unknown gamma0 kind"),
    "spec-v0-kind": (lambda: serialize.couple_from_spec(
        {"gamma0": {"kind": "circle"}, "v0": {"kind": "swirl"}}),
        "unknown v0 kind"),
    "spec-no-gauge": (lambda: serialize.gauge_from_spec({}),
                      "gauge spec needs"),
    "sphere-samples-unit": (lambda: SphereSamplesTangent(
        np.full((16, 2), 2.0), 1.0), "not unit vectors"),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_public_input_check_raises(name):
    call, message = CHECKS[name]
    with pytest.raises(PreconditionError, match=message):
        call()
