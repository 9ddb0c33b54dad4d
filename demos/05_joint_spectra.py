"""One-sided joint spectra of the creation tuple.

The right spectrum is the closed unit ball: inside it the adjoint tuple has
joint eigenvectors (so no right inverse exists), outside it a geometric
resolvent series builds one explicitly.  The left spectrum is much larger;
growth certificates rule out bounded left inverses outside the open
polydisc, while at the origin a whole family of rank-one perturbations
solves the left equations.
"""

import numpy as np

from fockshift import (
    FourierElement,
    PeriodicWeights,
    left_growth_certificate,
    parse_word,
    resolvent_check,
    right_membership,
    semisimple_estimate,
    spectral_radius_lower,
    zero_left_inverses,
)
from fockshift.weights import table_from_strings
from fockshift.words import EMPTY

# The resolvent series inverts I - sum conj(z_i) L_i below the unit sphere;
# its truncation defect is the dropped geometric tail, exactly ||z||^depth.
for depth in (6, 8, 10):
    report = resolvent_check((0.5, 0.0), depth)
    print(f"depth {depth}: low defect {report.low_level_defect:.1e}, "
          f"top defect {report.top_level_defect:.6e} (= 0.5^{depth})")

# Membership both ways: an eigenvector witness inside, a verified right
# inverse outside, and an inconclusive band at the sphere itself.
for point in ((0.0, 0.0), (0.6, 0.3), (1.0, 0.0), (2.0, 0.0)):
    report = right_membership(point, 8)
    print(f"z = {point}: {report.verdict}  defects {report.defects}")

# No bounded left inverse exists once a coordinate reaches the unit circle:
# the recursion along 1-runs forces sqrt(k) growth (marginal case) or
# |z_1|^k growth (geometric case).
marginal = left_growth_certificate((1.0, 0.0), 100, 0.0)
print(f"\nmarginal growth at k = 100: {marginal.bounds[-1]:g}")
geometric = left_growth_certificate((2.0, 0.0), 10, 1.0)
print(f"geometric growth at k = 10: {geometric.bounds[-1]:g}")

# At the origin the left equations do have solutions: exactly the rank-one
# perturbations of the adjoint shifts.  [L_1 L_2] is a certified partial
# isometry, so the minimum-norm solution is L_1* itself and its reconstruction
# residual is 0 by construction; no least-squares solve runs.
report = zero_left_inverses({parse_word("21"): 1.0}, {EMPTY: 0.25j}, 6)
print(f"\nzero-point left inverses: identity defect {report.max_identity_defect:.1e}, "
      f"rank-one reconstruction residual {report.reconstruction_residual:.1e}")

# Lower bounds on spectral radii come from the leading coefficient of the
# powers A^k xi_e; with a positive semisimplicity constant they stay away
# from zero, which is how quasinilpotents are excluded.
periodic = PeriodicWeights(
    2, 2, table_from_strings({"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2})
)
rng = np.random.default_rng(5)
coeffs = {parse_word("1"): 0.8 + 0.2j, parse_word("12"): complex(rng.standard_normal()),
          parse_word("22"): 0.5}
element = FourierElement.build(coeffs, periodic)
bounds = spectral_radius_lower(element, parse_word("1"), 4, 8)
print(f"\nspectral radius lower bounds: {[f'{b:.4f}' for b in bounds.bounds]}")
estimate = semisimple_estimate(periodic, 2, 8)
print(f"semisimplicity constant estimate: {estimate.value:.4f} at v = {estimate.witness_v}")
