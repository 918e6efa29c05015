"""
Cell models, nerves, and the geodetic distance
==============================================

Build the finite cell models of P^1, P^2, and an elliptic curve with good
reduction, look at their chart nerves, and query the distance that the
weighted nerve induces on cells.
"""

from fractions import Fraction

from padic_spectra import (
    CurveSpec,
    build_elliptic_model,
    build_projective_model,
    build_Y_model,
    verify_ball_transition_consistency,
)

# The projective line over Q_5, subdivided to level 2.  The builder returns
# the cell model together with the atlas it came from and the nerve of the
# chart covering.
model, atlas, nerve = build_projective_model(5, 1, 2)
print(model.name)
print("  tops:", len(model.tops), " cells:", model.num_cells,
      " total measure:", model.total_measure)

# Every simplex of the nerve carries the measure of the chart overlap it
# records.  For projective space the weights are 1, 1 - 1/p, (1 - 1/p)^2, ...
print("  nerve connected:", nerve.is_connected())
for entry in nerve.to_json_entries():
    print("   ", entry["charts"], "weight", entry["weight"])

# The same picture for the plane: three charts, pairwise and triple overlaps.
plane, _, plane_nerve = build_projective_model(5, 2, 2)
print()
print(plane.name)
for entry in plane_nerve.to_json_entries():
    print("   ", entry["charts"], "weight", entry["weight"])

# Y = P^2 minus P^1 drops the line at infinity; at n = 2 the nerve stays
# connected and the total measure drops below 1.
y_model, _, _ = build_Y_model(5, 2, 2)
print()
print(y_model.name, " total measure:", y_model.total_measure)

# An elliptic curve with good reduction over Q_13.  The reduction map fibers
# the points into N discs of measure 1/q; the two standard charts cut the
# fibers into three regions.
curve = CurveSpec(13, -1, 0)
e_model = build_elliptic_model(curve, 2)
print()
print(e_model.name)
regions = {}
for top in e_model.tops:
    regions[frozenset(top.region)] = regions.get(frozenset(top.region), 0) + 1
for region, count in sorted(regions.items(), key=lambda kv: sorted(kv[0])):
    print("  region", set(region), ":", count, "fibers")

# Distances.  Within a fiber the distance is the measure of the smallest
# ball containing both cells; across fibers it runs along the nerve.
print()
print("d(cell 0, cell 1)  =", e_model.geodesic_distance(0, 1), " (same fiber)")
print("d(cell 0, cell 13) =", e_model.geodesic_distance(0, 13), " (next fiber)")
print("d(cell 0, cell 0)  =", e_model.geodesic_distance(0, 0),
      " (a cell's own measure: the join of a cell with itself is the cell)")

# Sanity: ball prefixes agree with the transition maps on every chart overlap.
checked, failures = verify_ball_transition_consistency(model, atlas)
assert failures == []
print()
print("transition consistency:", checked, "ball pairs checked, no failures")

# Exact arithmetic throughout: measures are fractions, never floats.
assert e_model.total_measure == Fraction(8, 13)
