"""Desk-scale acceptance suite.

One test per advertised guarantee. Each prints a single pass/fail line
with the measured numbers (run with -s to see them on green runs) and
then asserts. Budgets are wall-clock seconds on a desk machine.
"""

import itertools
import time

import numpy as np
import pytest

from prefid import (
    UtilityFunction,
    dense_subset,
    enumerate_pairs,
    from_points,
    from_utility,
    generate_choices,
    make_dated_rewards,
    make_grid_euclidean,
    make_lottery_simplex,
    restrict,
    space_from_descriptor,
)
from prefid.experiments import ChoiceSequence, ExperimentSequence
from prefid.harness import ExperimentConfig, run_convergence, run_gallery
from prefid.preferences import (
    BinaryRelation,
    closed_convergence_distance,
    li_ls_limit,
    total_indifference,
)
from prefid.rationalize import (
    _replay_mask,
    all_total_preorders,
    brute_force_rationalizations,
    check_consistency,
    diameter_estimate,
    eu_preference,
    eu_rationalize,
    indifference_construction,
    rationalizes,
    revealed_relation,
    sample_extension,
)
from prefid.utility import (
    certainty_equivalent_utility,
    chain_step_bound,
    max_norm_distance,
    ordinal_equivalent,
)

GRID12 = {"kind": "euclidean_grid", "dims": 2, "resolution": 12, "bounds": [0.0, 1.0]}
RUN1 = {
    "space": GRID12,
    "generator": {"formula": "cobb_douglas_mix", "params": {"mix": 0.1}},
    "mode": "strong",
    "policy": {"tag": "canonical", "monotone": "weak"},
    "utility_distance": True,
}


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def run1():
    config = ExperimentConfig.from_dict(dict(RUN1))
    t0 = time.perf_counter()
    report = run_convergence(config)
    return config, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def grid12_data():
    space = space_from_descriptor(GRID12)
    gen = from_utility(
        space, space.points.prod(axis=1) + 0.1 * space.points.sum(axis=1)
    )
    e = enumerate_pairs(dense_subset(space))
    c = generate_choices(gen, e, mode="strong")
    return space, gen, e, c


def test_criterion_1_strong_rationalization_convergence(run1):
    _, report, elapsed = run1
    space = space_from_descriptor(GRID12)
    step = space.step
    deltas = [row.delta_c for row in report.rows]
    rises = [
        (a, b) for a, b in zip(deltas, deltas[1:]) if b > a + 1e-12
    ]
    ok = (
        all(row.consistent for row in report.rows)
        and len(rises) <= 1
        and all(b - a <= step + 1e-9 for a, b in rises)
        and deltas[-1] == 0.0
        and elapsed < 60.0
    )
    _verdict(
        1,
        ok,
        f"delta_c nonincreasing with {len(rises)} allowed step-sized rise, "
        f"final 0.0 at full coverage ({elapsed:.1f}s < 60s)",
    )


def test_criterion_2_weak_rationalization_partial_observability():
    space = space_from_descriptor(GRID12)
    step = space.step
    t0 = time.perf_counter()
    finals = []
    for seed in range(10):
        config = ExperimentConfig.from_dict(
            {
                "space": GRID12,
                "generator": {"formula": "cobb_douglas_mix", "params": {"mix": 0.1}},
                "mode": "weak",
                "tie_policy": "random",
                "policy": {"tag": "canonical", "monotone": "strict"},
                "schedule": {"order": "diagonal", "seed": seed},
                "k_grid": [10296],
            }
        )
        report = run_convergence(config)
        assert report.rows[-1].consistent
        finals.append(report.rows[-1].delta_c)
    elapsed = time.perf_counter() - t0
    ok = all(d <= 2.0 * step + 1e-9 for d in finals) and elapsed < 120.0
    _verdict(
        2,
        ok,
        f"final delta_c <= 2*step on 10 seeds (max {max(finals):.4f} "
        f"vs {2 * step:.4f}, {elapsed:.1f}s < 120s)",
    )


def test_criterion_3_indifference_bound_and_dense_limit():
    t0 = time.perf_counter()
    space = make_grid_euclidean(1, 64, (0.0, 1.0))
    h = space.step
    B = dense_subset(space, stride=4)
    gen = from_utility(space, space.points[:, 0])
    e = enumerate_pairs(B)
    c = generate_choices(gen, e, mode="strong")
    flat = total_indifference(space)
    prefs, bounds, within = [], [], []
    for k in (1, 2, 4, 8, 16):
        e_k, c_k = restrict(e, c, k)
        pref = indifference_construction(e_k, c_k)
        assert rationalizes(pref, e_k, c_k)
        delta = closed_convergence_distance(pref, flat)
        bound = 1.0 / (2.0 * k) + 2.0 * h
        within.append(delta <= bound + 1e-9)
        prefs.append(pref)
        bounds.append(bound)
    li, ls = li_ls_limit(prefs, tuple(bounds))
    full = BinaryRelation(space, np.ones((space.num_points,) * 2, dtype=bool))
    elapsed = time.perf_counter() - t0
    ok = all(within) and li == full and ls == full and elapsed < 30.0
    _verdict(
        3,
        ok,
        f"delta to indifference within 1/(2k)+2*step for k=1..16 and the "
        f"radius-scheduled limit covers all pairs ({elapsed:.1f}s < 30s)",
    )


def test_criterion_4_diameter_shrinkage(grid12_data):
    t0 = time.perf_counter()
    chain = from_points(np.arange(6.0).reshape(-1, 1))
    e6 = enumerate_pairs(dense_subset(chain))
    c6 = generate_choices(from_utility(chain, np.arange(6.0)), e6, mode="strong")
    exact = []
    for k in range(1, len(e6) + 1):
        e_k, c_k = restrict(e6, c6, k)
        exact.append(diameter_estimate(e_k, c_k, "all").value)
    exact_ok = (
        all(b <= a + 1e-12 for a, b in zip(exact, exact[1:])) and exact[-1] == 0.0
    )

    # the shrinking-diameter claim quantifies over the strictly monotone
    # class, so the sampled leg draws within it
    space, gen, e, c = grid12_data
    seeds_ok = True
    for seed in range(20):
        estimates = []
        for k in (16, 64, 256, 1024, 4096, len(e)):
            e_k, c_k = restrict(e, c, k)
            est = diameter_estimate(
                e_k, c_k, "strict_monotone", num_samples=200, seed=seed
            )
            estimates.append(est.value)
        seeds_ok &= all(
            b <= a * 1.1 + 1e-9 for a, b in zip(estimates, estimates[1:])
        )
    elapsed = time.perf_counter() - t0
    ok = exact_ok and seeds_ok and elapsed < 300.0
    _verdict(
        4,
        ok,
        f"exact 6-point diameter weakly decreasing to 0 and 200-sample "
        f"12x12 estimates nonincreasing within 10% on 20 seeds ({elapsed:.1f}s < 300s)",
    )


def test_criterion_5_eu_double_run_agreement():
    t0 = time.perf_counter()
    space = make_lottery_simplex(3, 8)
    idx = np.array([0.8, -0.2, -0.6])
    idx = idx / np.linalg.norm(idx)
    gen = from_utility(space, space.points @ idx)
    B = dense_subset(space)
    prefs = []
    for seed in (0, 1):
        e = enumerate_pairs(B, schedule="shuffled", seed=seed)
        c = generate_choices(gen, e, mode="strong")
        res = eu_rationalize(e, c)
        assert res.status == "feasible"
        prefs.append(eu_preference(space, res.index))
    delta = closed_convergence_distance(prefs[0], prefs[1])
    elapsed = time.perf_counter() - t0
    ok = delta <= 2.0 * space.step + 1e-9 and elapsed < 60.0
    _verdict(
        5,
        ok,
        f"two shuffled-order fits agree: delta_c {delta:.4f} <= "
        f"{2 * space.step:.4f} ({elapsed:.1f}s < 60s)",
    )


def test_criterion_6_utility_selection_convergence(run1):
    _, report, _ = run1
    space = space_from_descriptor(GRID12)
    values = space.points.prod(axis=1) + 0.1 * space.points.sum(axis=1)
    u_star = UtilityFunction(space, values)
    bound = chain_step_bound(space, u_star)
    final = report.rows[-1]
    bound_ok = final.utility_dist is not None and final.utility_dist <= bound + 1e-12

    # the selection with the data-recovered preorder at full coverage
    gen = from_utility(space, values)
    u_final = certainty_equivalent_utility(gen, u_star)
    scaled_dists = []
    escape_ok = True
    target = u_final.preference()
    for k in (1, 10, 100, 1000, 10296):
        v_k = UtilityFunction(space, k * u_final.values)
        escape_ok &= ordinal_equivalent(v_k, u_final)
        escape_ok &= closed_convergence_distance(v_k.preference(), target) == 0.0
        scaled_dists.append(max_norm_distance(v_k, u_star))
    escape_ok &= all(b > a for a, b in zip(scaled_dists, scaled_dists[1:]))
    escape_ok &= all(
        any(d > fixed for d in scaled_dists) for fixed in (1.0, 10.0, 100.0, 1000.0)
    )
    ok = bound_ok and escape_ok
    _verdict(
        6,
        ok,
        f"final-checkpoint utility distance {final.utility_dist:.4f} <= chain-step "
        f"bound {bound:.4f}; scaled family escapes every fixed bound "
        f"(up to {scaled_dists[-1]:.0f}) with unchanged preferences",
    )


def test_criterion_7_counterexample_gallery():
    t0 = time.perf_counter()
    grodal = run_gallery("grodal_nontransitive")
    strict_gallery = run_gallery("locally_strict_not_closed")
    g_checks = grodal["assertions"]
    s_checks = strict_gallery["assertions"]
    grodal_ok = (
        grodal["ok"]
        and g_checks["so indifference is intransitive in the limit"]["passed"]
        and g_checks["limit relation is quasitransitive"]["passed"]
    )
    term_names = [f"n={n}: term is locally strict" for n in range(2, 51)]
    strict_ok = (
        strict_gallery["ok"]
        and all(s_checks[name]["passed"] for name in term_names)
        and s_checks["limit is not locally strict"]["passed"]
        and s_checks["the only failure is the pair (-2, 2)"]["passed"]
        and s_checks["n=10: value at -2 is exactly 0.1"]["passed"]
        and s_checks["limit values at -2 and 2 are exactly 0"]["passed"]
    )
    elapsed = time.perf_counter() - t0
    ok = grodal_ok and strict_ok and elapsed < 10.0
    _verdict(
        7,
        ok,
        f"pivot-box limit is quasitransitive with intransitive indifference; "
        f"local strictness fails only at the witness pair ({elapsed:.1f}s < 10s)",
    )


# ---------------------------------------------------------------------------
# criterion 8: oracle equivalence on every small space


def _naive_preorders(n):
    rows = []
    for row in itertools.product(range(n), repeat=n):
        top = max(row)
        if set(row) == set(range(top + 1)):
            rows.append(row)
    return np.array(rows, dtype=np.int8)


def _c8_spaces():
    lattice = np.array([[i, j] for i in range(2) for j in range(3)], dtype=float)
    spaces = [from_points(np.arange(float(n)).reshape(-1, 1)) for n in range(2, 7)]
    spaces += [
        make_grid_euclidean(2, 2, (0.0, 1.0)),
        from_points(lattice),
        make_lottery_simplex(2, 4),
        make_lottery_simplex(3, 2),
        make_dated_rewards(2, 3, ((0.0, 1.0), (0.0, 1.0))),
    ]
    return spaces


def _choice_options(x, y, mode):
    if mode == "strong":
        return ((x,), (y,), (x, y))
    return ((x,), (y,))


def test_criterion_8_oracle_equivalence():
    t0 = time.perf_counter()
    preorders_by_n = {}
    total = 0
    spaces = _c8_spaces()
    for space in spaces:
        n = space.num_points
        assert n <= 6
        if n not in preorders_by_n:
            R_test = _naive_preorders(n)
            R_lib = all_total_preorders(n)
            # the two enumerations must agree row for row before either
            # is used as a filter target
            assert np.array_equal(R_test, R_lib)
            preorders_by_n[n] = R_test
        R = preorders_by_n[n]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if len(pairs) < 3:
            continue
        B = dense_subset(space)
        index = 0
        for combo in itertools.combinations(pairs, 3):
            e = ExperimentSequence(space, B, combo)
            for mode in ("strong", "weak"):
                options = [_choice_options(x, y, mode) for x, y in combo]
                for chosen in itertools.product(*options):
                    c = ChoiceSequence(e, chosen, mode)
                    index += 1
                    total += 1

                    # test-side replay of the raw rows
                    test_mask = np.ones(R.shape[0], dtype=bool)
                    for (x, y), ch in zip(combo, chosen):
                        cx, cy = R[:, x], R[:, y]
                        if mode == "strong":
                            if len(ch) == 2:
                                test_mask &= cx == cy
                            elif ch[0] == x:
                                test_mask &= cx > cy
                            else:
                                test_mask &= cy > cx
                        else:
                            if ch[0] == x:
                                test_mask &= cx >= cy
                            else:
                                test_mask &= cy >= cx

                    r = revealed_relation(e, c, mode)
                    consistent = check_consistency(r).consistent
                    lib_mask = _replay_mask(R, r)
                    assert consistent == bool(test_mask.any()) == bool(lib_mask.any())
                    assert np.array_equal(test_mask, lib_mask)

                    # edge semantics must carve out the same set
                    edge_mask = np.ones(R.shape[0], dtype=bool)
                    for x, y, strict in zip(r.x.tolist(), r.y.tolist(), r.strict.tolist()):
                        edge_mask &= R[:, x] > R[:, y] if strict else R[:, x] >= R[:, y]
                    assert np.array_equal(edge_mask, test_mask)

                    if index % 500 == 1:
                        assert np.array_equal(
                            brute_force_rationalizations(e, c), R[test_mask]
                        )

                    if consistent and index % 37 == 0:
                        rng = np.random.default_rng(index)
                        allowed = {tuple(int(v) for v in row) for row in R[test_mask]}
                        for _ in range(12):
                            draw = sample_extension(r, rng)
                            assert tuple(int(v) for v in draw.rank) in allowed

                    # bounded-draw support equality on the small spaces
                    if consistent and (n <= 3 or (n == 4 and index % 10 == 0)):
                        expected = {tuple(int(v) for v in row) for row in R[test_mask]}
                        rng = np.random.default_rng(index)
                        seen = set()
                        for _ in range(4000):
                            draw = sample_extension(r, rng)
                            seen.add(tuple(int(v) for v in draw.rank))
                            if seen == expected:
                                break
                        assert seen == expected
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _verdict(
        8,
        ok,
        f"consistency, brute-force sets, edge filters, and sampler draws agree "
        f"on {total} three-pair datasets over {len(spaces)} spaces ({elapsed:.1f}s < 120s)",
    )
