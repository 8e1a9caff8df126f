"""Bracket degenerations and the transfer of curvature conditions.

A diagonal power curve collapses the 3-dimensional euclidean motion
algebra onto the Heisenberg algebra.  Scalar curvature along the curve
crosses into negative territory at finite time, and the witness metric
is returned explicitly.  Diagonal power curves also steer along faces
of the weight polytope and rescale rank-one extensions.
"""

import numpy as np

from rnlie import (
    corpus,
    diagonal_power_curve,
    face_steering_curve,
    heintze_degeneration,
    koszul_oracle,
    limit_bracket,
    pinching_transfer,
    trajectory,
    weight_polytope,
)


def main():
    e3 = corpus("euclid3").bracket
    curve = diagonal_power_curve(e3, (1, 0, 1))
    print("limit of the collapse:", limit_bracket(curve))

    print("\nscalar curvature along the family:")
    for point in trajectory(curve, t_max=2 ** 4):
        print(f"  t={point.t:>4}: scalar {point.scalar:+.5f}")

    hit = pinching_transfer(curve, "ScalarNegative")
    print("\npredicate reached at step", hit.index, "(t =", str(hit.t) + ")",
          "with value", hit.value)
    check = koszul_oracle(e3, metric=np.array(hit.metric, dtype=float))
    print("witness metric reproduces the value:", check.scalar)

    t5 = corpus("tricky5").bracket
    faces = weight_polytope(t5).hull_faces
    edge = next(f for f in faces if len(f) == 2)
    steer = face_steering_curve(t5, edge)
    print("\nsteering along the face", edge, "uses exponents", steer.exponents)
    print("face limit:", limit_bracket(steer))

    h3 = corpus("heisenberg", 3).bracket
    fam = heintze_degeneration([[1, 0, 0], [0, 1, 0], [0, 0, 2]], h3)
    res = pinching_transfer(fam, "RicciNegative")
    print("\nextension family satisfies the Ricci predicate at step", res.index,
          "with value", res.value)


if __name__ == "__main__":
    main()
