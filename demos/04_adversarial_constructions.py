"""
Adversarial rationalizations
============================

Finite data never pins the preference down. Two constructions make that
vivid: one stays as close to total indifference as the data allows, the
other runs as far from a target as any rationalization can.
"""

from prefid import (
    adversarial_far_extension,
    closed_convergence_distance,
    dense_subset,
    enumerate_pairs,
    from_utility,
    generate_choices,
    indifference_construction,
    make_grid_euclidean,
    rationalizes,
    restrict,
    revealed_relation,
    total_indifference,
)

# a fine 1-D grid observed on a spread-out alternative set
space = make_grid_euclidean(1, 64, (0.0, 1.0))
h = space.step
B = dense_subset(space, stride=4)
gen = from_utility(space, space.points[:, 0])
e = enumerate_pairs(B)
c = generate_choices(gen, e, mode="strong")
flat = total_indifference(space)

# the indifference construction rationalizes k strict comparisons while
# staying within 1/(2k) + 2h of total indifference
print("near-indifference rationalizations of strictly ordered data:")
print(f"{'k':>4} {'delta_c':>9} {'bound':>9}")
for k in (1, 2, 4, 8, 16):
    e_k, c_k = restrict(e, c, k)
    p = indifference_construction(e_k, c_k)
    assert rationalizes(p, e_k, c_k)
    d = closed_convergence_distance(p, flat)
    print(f"{k:>4} {d:>9.4f} {1 / (2 * k) + 2 * h:>9.4f}")

# the far extension pushes away from a target instead: it is the
# rationalization farthest from the generator, which little data leaves far
e_k, c_k = restrict(e, c, 4)
r = revealed_relation(e_k, c_k, "strong")
far, exhausted = adversarial_far_extension(r, gen, seed=1, budget=200)
print()
print(f"far search after 4 observations: delta_c to generator = "
      f"{closed_convergence_distance(far, gen):.3f} (budget exhausted: {exhausted})")
assert rationalizes(far, e_k, c_k)
