"""Recovering an algebra element from its Fourier expansion by Cesaro sums.

Every element of the shift algebra is determined by its coefficient map
a_w = <A xi_e, xi_w>.  The Fejer-weighted polynomials p_k(A) built from
those coefficients agree with the band-smoothed Cesaro sums of the matrix
wherever the truncation is exact, and the coefficients themselves read
back off the vacuum column.
"""

import numpy as np

from fockshift import (
    BasisEnumeration,
    FourierElement,
    PeriodicWeights,
    TruncatedFock,
    apply_fourier,
    cesaro_sum,
    commutant_extract,
    operator_from_fourier,
    parse_word,
    phi_band,
    pk_polynomial,
)
from fockshift.weights import table_from_strings

periodic = PeriodicWeights(
    2, 2, table_from_strings({"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2})
)
space = TruncatedFock(2, 8)

# A random polynomial in the weighted shifts, supported on words up to
# length 3, written through its Fourier coefficients.
rng = np.random.default_rng(8)
coeffs = {
    w: complex(rng.standard_normal(), rng.standard_normal())
    for w in BasisEnumeration(2, 3).words()
}
element = FourierElement.build(coeffs, periodic)
operator = operator_from_fourier(element, space)

# The operator splits into level bands; band -j holds the length-j words.
bands = sorted(operator.bands)
print(f"occupied bands: {bands}")
for j in bands:
    print(f"  band {j:+d} nonzeros: {phi_band(operator, j).mat.nnz}")

# Cesaro smoothing weights band j by 1 - |j|/k; on the algebra element this
# is exactly the Fejer polynomial of its expansion.
for k in (2, 4, 8):
    smoothed = cesaro_sum(operator, k)
    polynomial = pk_polynomial(element, k, space)
    worst = 0.0
    for level in range(space.depth - k + 1):
        for v in space.level_words(level):
            worst = max(worst, float(np.linalg.norm(smoothed.column(v) - polynomial.column(v))))
    print(f"k = {k}: max |Sigma_k(A) xi_v - p_k(A) xi_v| = {worst:.3e}")

# Extraction pre-checks commutation with the right shifts, then re-predicts
# every reachable column from the recovered coefficients.
result = commutant_extract(operator, periodic)
recovery = max(abs(result.element.coeffs[w] - coeffs[w]) for w in coeffs)
print(f"\nextraction residual over {result.columns_checked} columns: {result.residual:.3e}")
print(f"worst coefficient recovery error: {recovery:.3e}")

# The expansion formula evaluates the action on any basis vector directly.
v = parse_word("21")
image = apply_fourier(element, v, space.depth)
direct = space.coeffs_from_vector(operator.column(v))
print(f"\nA xi_21 has {len(image)} components; formula matches matrix: "
      f"{all(abs(image[w] - direct[w]) < 1e-14 for w in image)}")
