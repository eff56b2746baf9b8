"""
Revealed relations, consistency, and extension policies
=======================================================

From finite choice data, build the revealed relation, decide whether any
complete transitive preference could have produced it, and when one can,
pick extensions under different policies.
"""

import numpy as np

from prefid import (
    ChoiceSequence,
    ExperimentSequence,
    brute_force_rationalizations,
    check_consistency,
    dense_subset,
    extend_preference,
    from_points,
    rationalizes,
    revealed_relation,
    sample_extension,
    RationalizationPolicy,
)

chain = from_points(np.arange(5.0).reshape(-1, 1))
B = dense_subset(chain)

# hand-built data with a strict cycle: 0 beats 1, 1 beats 2, 2 beats 0
e_bad = ExperimentSequence(chain, B, ((0, 1), (1, 2), (0, 2)))
c_bad = ChoiceSequence(e_bad, ((0,), (1,), (2,)), "strong")
r_bad = revealed_relation(e_bad, c_bad, "strong")
res = check_consistency(r_bad)
print(f"cyclic data consistent: {res.consistent}, witness cycle: {res.witness}")

# consistent data: a partial view of the natural order on the chain
e = ExperimentSequence(chain, B, ((0, 1), (1, 3), (2, 3)))
c = ChoiceSequence(e, ((1,), (3,), (3,)), "strong")
r = revealed_relation(e, c, "strong")
print(f"partial data consistent: {check_consistency(r).consistent}")

# the canonical extension collapses everything the data leaves free
p = extend_preference(r, RationalizationPolicy(tag="canonical"))
print(f"canonical ranks: {p.rank.tolist()}")
assert rationalizes(p, e, c)

# monotonicity can be injected as extra revealed edges before extending;
# the revealed relation carries the monotone class, so the policy names none
r_mono = revealed_relation(e, c, "strong", monotone="strict")
p_mono = extend_preference(r_mono, RationalizationPolicy(tag="canonical"))
print(f"with strict monotone edges: {p_mono.rank.tolist()}")

# random extensions sample the rationalization set; on a 5-point space
# the exhaustive enumeration shows exactly what they may return
allowed = brute_force_rationalizations(e, c)
print(f"rationalization set size (exhaustive): {len(allowed)}")
rng = np.random.default_rng(0)
seen = {tuple(sample_extension(r, rng).rank.tolist()) for _ in range(300)}
allowed_set = {tuple(int(v) for v in row) for row in allowed}
print(f"sampled support: {len(seen)} distinct, all allowed: {seen <= allowed_set}")
