"""The commutant boundedness condition and the shift commutation it governs.

The right shifts S_i xi_w = mu_{i,w} xi_{w*i} commute with every weighted
left shift exactly when mu_{i,w} = W(i,w)/W(e,w), and they are bounded
exactly when those ratios are.  Some families satisfy the condition, some
do not, and one decision reads it off each family's prepend automaton.
"""

from fockshift import (
    TruncatedFock,
    TwoLetterRunWeights,
    PeriodicWeights,
    commutant_mu,
    commutation_defect,
    condition6_sup,
    norm_check,
    parse_word,
    vacuum_kernel_check,
)
from fockshift.weights import TableMu, mu_table, table_from_strings
from fockshift.words import Word

periodic = PeriodicWeights(
    2, 2, table_from_strings({"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2})
)

# The ratio supremum for this periodic subclass is exactly c/a = 2, decided
# by a max-plus sweep of the ratio pairs of its prepend automaton.
report = condition6_sup(periodic, 10)
print(f"periodic subclass: sup ratio = {report.value:g}, verdict = {report.verdict}")
print(f"  certificate: {report.certificate}")

# A two-letter system with m > 1 fails the condition: the ratio along the
# run words 1^k grows like m^(k/2).
runs = TwoLetterRunWeights(4.0, 1.0)
print("\nratios along 1^k for the m = 4 run family:")
for k in range(6):
    print(f"  W(2,1^{k})/W(e,1^{k}) = {commutant_mu(runs, 2, Word([1] * k)):g}")
print(f"verdict: {condition6_sup(runs, 10).verdict}")

# Shrinking m below 1 (and c below sqrt(m)) restores boundedness with
# supremum exactly 1.
tame = TwoLetterRunWeights(0.81, 0.9)
report = condition6_sup(tame, 10)
print(f"\nm = 0.81, c = 0.9: sup ratio = {report.value:g}, verdict = {report.verdict}")

# On the truncation, commutation of T_i with S_j is exact wherever both
# products stay below the top level.
space = TruncatedFock(2, 8)
print(f"\ncommutation defect (correct mu): {commutation_defect(space, periodic).max_defect:.3e}")

# Perturbing a single right weight by 1% breaks commutation at its word.
table = mu_table(periodic, 7)
table[(1, parse_word("1"))] *= 1.01
broken = commutation_defect(space, periodic, TableMu(2, 7, table))
print(f"commutation defect (one weight off by 1%): {broken.max_defect:.3e} at {broken.witness}")

# Operator norms equal the weight suprema, and the joint kernel of the
# adjoint shifts is the vacuum line.
for r in norm_check(space, tame):
    print(f"||T_{r.letter}|| = {r.operator_norm:.10f}  sup lambda = {r.weight_sup:.10f}")
print(f"joint kernel dimension: {vacuum_kernel_check(TruncatedFock(2, 6), periodic).joint_kernel_dim}")
