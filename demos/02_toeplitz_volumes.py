"""Cube-section volumes: what a crossing costs.

Each pair partition pins down a linear system on x_0..x_k: every block
(i, j) demands x_i - x_{i-1} + x_j - x_{j-1} = 0.  Eliminating one
variable per block leaves k/2 + 1 free; the volume is the chance that a
uniform draw of the free variables keeps every eliminated one inside
[0, 1].  Non-crossing partitions always stay inside (volume exactly 1);
crossings push mass outside.
"""

from corrdiag import enumerate_pair_partitions, is_crossing, solve_partition_system, toeplitz_volume

print("the linear system for the interleaved partition 1-3,2-4:")
sys_ = solve_partition_system(next(p for p in enumerate_pair_partitions(4) if is_crossing(p)))
print(f"  free variables: x{list(sys_.free_vars)}")
for j, coeffs in sys_.determined:
    terms = " + ".join(f"{c}*x{v}" for c, v in zip(coeffs, sys_.free_vars) if c)
    print(f"  x{j} = {terms}")

print("\nvolumes at k = 4 and k = 6 (one million samples each):")
for k in (4, 6):
    for p in enumerate_pair_partitions(k):
        est = toeplitz_volume(p, 1_000_000, 42)
        note = "exact" if est.exact else f"+- {est.std_error:.1e}"
        print(f"  {p.canonical():<18} volume {est.value:.4f}  ({note})")

print("\nfrozen reference points: the interleaved k=4 partition has volume")
print("2/3 and the fully interleaved k=6 chain has volume 1/2.")
