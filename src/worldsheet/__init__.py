"""Timelike extremal surfaces in Minkowski space via the orthogonal gauge.

Evolution is closed-form: a gauge is a pair of periodic unit-speed
curves (a, b) and the surface is (t, (a(x+t) + b(x-t)) / 2).  The
package detects and classifies the set where the parametrization
degenerates, computes the topological invariants of the tangent sphere
diagrams, builds the sharp-dimension and nonuniqueness example gauges,
and estimates box-counting dimensions of sampled singular sets.
"""

from .curves import ClosureReport, UnitSpeedCurve, from_tangent_image
from .dimension import PointCloud, SlopeEstimate, box_count, singstar_cloud
from .errors import PreconditionError, UnderResolvedError, WorldsheetError
from .gauge import (AdmissibleCouple, OrthogonalGauge, couple_from_gauge,
                    equivalent_gauges, gauge_from_couple, normalize,
                    period_E0)
from .singular import (DetectionReport, SingComponent, SingularPair,
                       angle_state, classify_sing_star, find_antipodal_pairs,
                       is_global_immersion, null_tangent_check,
                       sing_star_time_extent, tangent_formula)
from .surface import (ConstraintReport, SliceCurve, SurfaceSample,
                      constraint_residuals, derivatives, gamma, metric_det,
                      sample, slice_curve, slice_set_distance)
from .topology import (LinkingResult, PerturbationReport, SphereDiagram,
                       diagram, genericity_probe, linking_number,
                       synthetic_diagram, transversal_count, winding_number)

__all__ = [
    "AdmissibleCouple", "ClosureReport", "ConstraintReport",
    "DetectionReport", "LinkingResult", "OrthogonalGauge",
    "PerturbationReport", "PointCloud", "PreconditionError",
    "SingComponent", "SingularPair", "SliceCurve", "SlopeEstimate",
    "SphereDiagram", "SurfaceSample", "UnderResolvedError",
    "UnitSpeedCurve", "WorldsheetError", "angle_state", "box_count",
    "classify_sing_star", "constraint_residuals", "couple_from_gauge",
    "derivatives", "diagram", "equivalent_gauges", "find_antipodal_pairs",
    "from_tangent_image", "gamma", "gauge_from_couple", "genericity_probe",
    "is_global_immersion", "linking_number", "metric_det", "normalize",
    "null_tangent_check", "period_E0", "sample",
    "sing_star_time_extent", "singstar_cloud", "slice_curve",
    "slice_set_distance", "synthetic_diagram", "tangent_formula",
    "transversal_count", "winding_number",
]

__version__ = "0.1.0"
