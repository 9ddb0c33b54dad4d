"""Joint eigenvalues of the adjoint shifts and the regions they fill.

A point z in complex n-space is an eigenvalue of the adjoint tuple exactly
when the series sum over words of |w(z)|^2 W(e,w)^{-2} converges, which
depends on the coordinate moduli alone.  The demo samples the moduli plane,
verifies eigenvectors at inside points, and compares the sampled region
with the guaranteed ellipse.
"""

import io

import numpy as np

from fockshift import (
    ConstantWeights,
    GridSpec,
    ScaledWeights,
    TruncatedFock,
    eigen_residual,
    eigenvector_coeffs,
    ellipse_predicate,
    hereditary_check,
    joint_eigenspace_dim,
    level_sums,
    membership_verdict,
    region_sample,
    write_region_csv,
)

unweighted = ConstantWeights(2, 1.0)
scaled = ScaledWeights(2, (2.0, 3.0))

# For the unweighted system the level sums are a geometric series in
# ||r||^2, so the depth-10 partial sum at ||r||^2 = 0.5 is within 2^-10 of 2.
sums = level_sums(unweighted, (0.5, 0.5), 10)
print(f"sigma_0..3 = {sums[:4]}")
print(f"partial sum = {np.sum(sums):.10f}")
print(f"verdict: {membership_verdict(sums)}")

# Sampling the moduli quarter-plane traces out the unit ball.
sample = region_sample(unweighted, GridSpec(0.0, 1.2, 0.2).points(2), 10)
axis = sample.moduli[:, 1] == 0.0
for moduli, verdict, ratio in zip(sample.moduli[axis].tolist(), sample.verdict[axis], sample.tail_ratio[axis]):
    print(f"r = {tuple(moduli)}: {verdict} (tail ratio {ratio:.3f})")
buffer = io.StringIO()
write_region_csv(sample, buffer)
print(f"\nCSV rows emitted: {len(buffer.getvalue().splitlines())}")

# Scaled weights stretch the ball into an ellipse with semi-axes c_i.
report = ellipse_predicate(scaled, (1.0, 1.0), 6)
print(f"\nscaled(2,3) at r = (1,1): inside ellipse = {report.inside}, axes = {report.axes}")
inside = np.count_nonzero(region_sample(scaled, GridSpec(0.0, 3.0, 0.5).points(2), 8).verdict == "inside")
print(f"inside points on the [0,3]^2 grid: {inside}")

# Eigenvalue membership is hereditary: shrinking each modulus preserves it.
print(f"hereditary domination holds: {hereditary_check(scaled, (1.5, 1.0), (0.4, 0.9), 8)}")

# At any inside point (with arbitrary phases) the coefficient formula builds
# the joint eigenvector, exact below the truncation edge, and the eigenspace
# is one-dimensional.
space = TruncatedFock(2, 8)
point = (0.4 * np.exp(0.7j), 0.5 * np.exp(-2.1j))
candidate = eigenvector_coeffs(unweighted, point, space.depth)
residual = eigen_residual(unweighted, space, point, candidate.coeffs)
print(f"\neigen residual at a random phase point: {residual.max_residual:.3e}")
print(f"joint eigenspace dimension: {joint_eigenspace_dim(unweighted, space, point)}")
