"""Walk through the decomposition model by hand.

A decomposition is an ordered list of n pairs of disjoint subsets of
{1..m}, viewed as two n x m binary matrices and held as the row and column
occurrence lists of their ones.  Swapping a pair exchanges its two rows; a
choice of swaps that leaves every column of the first matrix nonzero is a
covering.
"""
from satcover import (
    DecompositionPair,
    apply_swaps,
    column_counts,
    input_length,
    is_alpha_covering,
    validate,
)
from satcover.cli import emit_decomp

# two pairs over three elements: pair 1 holds ({1}, {2,3}), pair 2 holds
# ({2}, {1,3}); the row lists hold 0-based columns
pair = DecompositionPair(
    n=2,
    m=3,
    alpha_rows=[[0], [1]],
    bar_rows=[[1, 2], [0, 2]],
)

print("valid decomposition:", not validate(pair))
print("rows n =", pair.n, " columns m =", pair.m)
print("input length (total set cells):", input_length(pair))

counts = column_counts(pair)
print("first-component column counts: ", list(counts.m_alpha))
print("second-component column counts:", list(counts.m_alpha_bar))

# column 3 has no 1 in the first matrix, so the identity choice of swaps
# is not a covering
print("identity is a covering:", is_alpha_covering(pair))

# a single swap never works here: swapping pair 1 empties column 1,
# swapping pair 2 empties column 2
for swaps in ({1}, {2}):
    print(f"swap set {swaps} is a covering:", is_alpha_covering(apply_swaps(pair, swaps)))

# swapping both pairs moves {2,3} and {1,3} into the first matrix, and
# together they touch every column
swapped = apply_swaps(pair, {1, 2})
print("after swapping both pairs (.decomp text, first matrix on top):")
print(emit_decomp(swapped), end="")
print("swap set {1, 2} is a covering:", is_alpha_covering(swapped))

# swaps are involutions: applying the same set twice restores the input
print("double swap restores:", apply_swaps(swapped, {1, 2}) == pair)
