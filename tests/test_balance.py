from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth.balance import (
    _TAKEN,
    BalanceConfig,
    _RankedPaths,
    auto_standard_length,
    load_subsets,
    resolve_standard_length,
    save_subsets,
    secondary_sampling,
)
from graphsynth.errors import ConfigurationError, IntegrityError
from graphsynth.traversal import Path, PathSet
from oracles import secondary_sampling_oracle


def _paths(plain):
    return [Path(steps=[tuple(s) for s in steps], path_id=pid) for pid, steps in plain]


def _recount(subsets):
    counts: Counter = Counter()
    for s in subsets:
        for p in s.cot_paths:
            for e in p.entities():
                counts[e] += 1
        for pair in s.cc_pairs:
            for e, _ in pair.steps():
                counts[e] += 1
    return counts


def impl_transcript(plain_paths, entity_to_chunks, total_chunks, r, l, seed):
    paths = _paths(plain_paths)
    cfg = BalanceConfig(target_coverage=r, standard_length=l)
    subsets = secondary_sampling(
        PathSet(paths=paths),
        cfg,
        entity_to_chunks=entity_to_chunks,
        total_chunks=total_chunks,
        seed=seed,
    )
    return transcript_of(plain_paths, subsets), subsets


def transcript_of(plain_paths, subsets):
    all_ids = [pid for pid, _ in plain_paths]
    retained: set[str] = set()
    transcript = {"subsets": []}
    for s in subsets:
        retained |= {p.path_id for p in s.cot_paths}
        transcript["subsets"].append(
            {
                "selection_order": list(s.trace.selection_order),
                "returned": list(s.trace.returned),
                "delta_r": s.trace.delta_r,
                "k": s.trace.k,
                "cut": s.trace.cut,
                "sparse": list(s.trace.sparse_entities),
                "cc": [(pair.left, pair.right) for pair in s.cc_pairs],
                "cot": [p.path_id for p in s.cot_paths],
                "coverage": s.achieved_coverage,
                "remaining_after": sorted(pid for pid in all_ids if pid not in retained),
            }
        )
    transcript["final_counts"] = {e: n for e, n in sorted(_recount(subsets).items()) if n}
    return transcript


# --- path utilization -----------------------------------------------------------


def path_utilization(path, counts):
    """The utilization the selection loop gives ``path``: its entities' counts, summed."""
    return int(_RankedPaths([path]).utilization(counts)[0])


def test_utilization_zero_on_fresh_ledger():
    p = _paths([("P", [("a", "c1"), ("b", "c2")])])[0]
    assert path_utilization(p, Counter()) == 0


def test_utilization_sums_counts():
    p = _paths([("P", [("a", "c1"), ("b", "c2")])])[0]
    assert path_utilization(p, Counter(a=2, b=3)) == 5


def test_utilization_defaults_missing_entities_to_zero():
    p = _paths([("P", [("a", "c1"), ("zzz", "c2")])])[0]
    assert path_utilization(p, Counter(a=2)) == 2


# --- secondary_sampling trivial cases --------------------------------------------


def test_coverage_reached_before_length():
    plain = [
        ("P1", [("a", "c1"), ("b", "c2")]),
        ("P2", [("c", "c3"), ("d", "c4")]),
    ]
    e2c = {"a": ["c1"], "b": ["c2"], "c": ["c3"], "d": ["c4"]}
    transcript, subsets = impl_transcript(plain, e2c, 4, 1.0, 10, seed=0)
    assert len(subsets) == 1
    assert transcript["subsets"][0]["cot"] == ["P1", "P2"]
    assert subsets[0].achieved_coverage == 1.0
    assert subsets[0].cc_pairs == []


def test_delta_r_formula_example():
    # r = 1.0 with r' = 0.8 at the l-th selection gives dr = 0.2 (checked to
    # 1e-12: 0.8 is not exactly representable in binary).
    r, r_prime = 1.0, 0.8
    assert (r - r_prime) / r == pytest.approx(0.2, abs=1e-12)


def test_empty_remaining_rejected():
    with pytest.raises(ValueError):
        secondary_sampling([], BalanceConfig(), entity_to_chunks={}, total_chunks=4)


def test_duplicate_path_ids_rejected():
    paths = _paths([("P1", [("a", "c1")]), ("P2", [("b", "c2")]), ("P1", [("c", "c3")])])
    with pytest.raises(ValueError, match="duplicate path_id 'P1'"):
        secondary_sampling(paths, BalanceConfig(), entity_to_chunks={}, total_chunks=4)


def test_paths_without_ids_are_named_by_position():
    plain = [("P1", [("a", "c1"), ("b", "c2")]), ("P2", [("c", "c3"), ("d", "c4")])]
    e2c = {"a": ["c1"], "b": ["c2"], "c": ["c3"], "d": ["c4"]}
    named = secondary_sampling(_paths(plain), BalanceConfig(), entity_to_chunks=e2c, total_chunks=4)
    paths = _paths([(None, steps) for _, steps in plain])
    subsets = secondary_sampling(paths, BalanceConfig(), entity_to_chunks=e2c, total_chunks=4)
    assert [p.path_id for p in paths] == ["p000000", "p000001"]
    assert [[p.steps for p in s.cot_paths] for s in subsets] == [
        [p.steps for p in s.cot_paths] for s in named
    ]


def test_length_below_two_at_trigger_is_config_error():
    plain = [("P1", [("a", "c1")]), ("P2", [("b", "c2")])]
    with pytest.raises(ConfigurationError):
        secondary_sampling(
            _paths(plain),
            BalanceConfig(target_coverage=1.0, standard_length=1),
            entity_to_chunks={"a": ["c1"], "b": ["c2"]},
            total_chunks=10,
        )


@pytest.mark.parametrize(
    "cfg, problem",
    [
        ({"target_coverage": 0.0}, "target_coverage"),
        ({"target_coverage": 1.5}, "target_coverage"),
        ({"standard_length": "x"}, "standard_length"),
    ],
)
def test_secondary_sampling_rejects_an_invalid_config(cfg, problem):
    # an invalid config cannot be built, so it never reaches secondary_sampling
    paths = _paths([("P1", [("a", "c1"), ("b", "c2")])])
    with pytest.raises(ConfigurationError, match=problem):
        secondary_sampling(
            paths, BalanceConfig(**cfg), entity_to_chunks={"a": ["c1"], "b": ["c2"]}, total_chunks=2
        )


def test_first_selection_breaks_ties_by_stable_order():
    plain = [
        ("P1", [("a", "c1"), ("b", "c2")]),
        ("P2", [("c", "c3"), ("d", "c4")]),
        ("P3", [("e", "c5"), ("f", "c6")]),
    ]
    e2c = {x: [f"c{i+1}"] for i, x in enumerate("abcdef")}
    transcript, _ = impl_transcript(plain, e2c, 6, 1.0, 99, seed=0)
    assert transcript["subsets"][0]["selection_order"][0] == "P1"


# --- the engineered six-path instance --------------------------------------------

SIX_PATHS = [
    ("P1", [("a", "c1"), ("b", "c2")]),
    ("P2", [("a", "c1"), ("c", "c3")]),
    ("P3", [("b", "c2"), ("d", "c4")]),
    ("P4", [("c", "c3"), ("d", "c4")]),
    ("P5", [("e", "c5"), ("f", "c6")]),
    ("P6", [("a", "c1"), ("d", "c4")]),
]
SIX_E2C = {
    "a": ["c1"],
    "b": ["c2"],
    "c": ["c3"],
    "d": ["c4"],
    "e": ["c5"],
    "f": ["c6"],
}


def test_six_path_instance_matches_oracle_exactly():
    # Derived case: expectations frozen from the straight-line oracle run
    # (seed 5, l=3, r=1.0, 24 corpus chunks so coverage stays far from r).
    transcript, _ = impl_transcript(SIX_PATHS, SIX_E2C, 24, 1.0, 3, seed=5)
    expected = secondary_sampling_oracle(SIX_PATHS, SIX_E2C, 24, 1.0, 3, seed=5)
    assert transcript == expected

    first = transcript["subsets"][0]
    assert first["selection_order"] == ["P1", "P4", "P5"]
    assert first["delta_r"] == 0.75
    assert first["k"] == 2
    assert first["cut"] == 1
    assert first["cot"] == ["P1"]
    assert first["returned"] == ["P4", "P5"]
    assert first["sparse"] == ["a", "b"]
    assert len(first["cc"]) == 1


def test_disjoint_two_l_instance_matches_oracle():
    # 2l paths with pairwise-disjoint entities and r unreachable; the oracle
    # transcript is the authority for the resulting subset structure.
    l = 3
    plain = [
        (f"P{i}", [(f"x{2 * i}", f"k{2 * i}"), (f"x{2 * i + 1}", f"k{2 * i + 1}")])
        for i in range(2 * l)
    ]
    e2c = {f"x{j}": [f"k{j}"] for j in range(4 * l)}
    total = 100  # far more chunks than the paths can cover
    transcript, subsets = impl_transcript(plain, e2c, total, 1.0, l, seed=9)
    expected = secondary_sampling_oracle(plain, e2c, total, 1.0, l, seed=9)
    assert transcript == expected
    # conservation: every path retained exactly once, none lost
    retained = [pid for s in transcript["subsets"] for pid in s["cot"]]
    assert sorted(retained) == sorted(pid for pid, _ in plain)


# --- auto length -------------------------------------------------------------------


def test_auto_standard_length_formula():
    assert auto_standard_length(200, 1) == 100
    assert auto_standard_length(200, 2) == 66
    assert auto_standard_length(7, 2) == 2
    assert auto_standard_length(1, 2) == 0


def test_resolve_standard_length():
    assert resolve_standard_length(BalanceConfig(standard_length="auto"), 200, 1) == 100
    assert resolve_standard_length(BalanceConfig(standard_length=7), 200, 1) == 7
    assert resolve_standard_length(BalanceConfig(standard_length="auto"), 1, 2) == 1


def test_config_validation():
    for kwargs, problem in [
        ({"target_coverage": 1.2}, "target_coverage must be in"),
        ({"target_coverage": 0.0}, "target_coverage must be in"),
        ({"standard_length": 0}, "standard_length must be a positive integer"),
    ]:
        with pytest.raises(ConfigurationError, match=problem):
            BalanceConfig(**kwargs)
    BalanceConfig()


# --- randomized oracle equivalence and invariants ----------------------------------


def random_balance_instance(rng: random.Random):
    n_entities = rng.randint(2, 10)
    entities = [f"e{i}" for i in range(n_entities)]
    n_chunks = rng.randint(4, 16)
    chunks = [f"c{i}" for i in range(n_chunks)]
    e2c = {e: sorted(rng.sample(chunks, rng.randint(1, 3))) for e in entities}
    n_paths = rng.randint(1, 12)
    plain = []
    for i in range(n_paths):
        ents = rng.sample(entities, min(rng.randint(2, 3), n_entities))
        steps = [(e, rng.choice(e2c[e])) for e in ents]
        plain.append((f"P{i}", steps))
    total = rng.choice([n_chunks, n_chunks * 2, n_chunks * 4])
    r = rng.choice([1.0, 0.9, 0.75, 0.5])
    l = rng.randint(2, 6)
    return plain, e2c, total, r, l


# Subset 0 picks P1, P2, P3 and keeps only P1: returned P2 shares c1 with
# it, and the one CC pair, g and h, takes c4 of returned P3.
CUT_SHARES_CHUNKS = (
    [
        ("P1", [("a", "c1"), ("b", "c2")]),
        ("P2", [("c", "c3"), ("d", "c1")]),
        ("P3", [("e", "c4"), ("f", "c5")]),
    ],
    {"a": ["c1"], "b": ["c2"], "c": ["c3"], "d": ["c1"], "e": ["c4"], "f": ["c5"],
     "g": ["c4"], "h": ["c6"]},
    20, 1.0, 3,
)


def test_randomized_oracle_equivalence():
    cases = [(seed, random_balance_instance(random.Random(1000 + seed))) for seed in range(30)]
    cases.append((0, CUT_SHARES_CHUNKS))
    for seed, (plain, e2c, total, r, l) in cases:
        got, _ = impl_transcript(plain, e2c, total, r, l, seed=seed)
        want = secondary_sampling_oracle(plain, e2c, total, r, l, seed=seed)
        assert got == want, f"divergence at seed {seed}"


def hub_instance():
    """240 depth-3 paths (4 steps): ``hub`` on half of them, ``above``, ``edge`` and
    ``below`` on n/8 + 1, n/8 and n/8 - 1, and 60 light entities on the other steps.

    P002, an early hub path whose two light entities are rare, holds ``hub``
    twice, so raising it by one step where two are due changes the order.
    """
    rng = random.Random(33)
    n = 240
    light = [f"l{i:02d}" for i in range(60)]
    members = {"hub": set(range(0, n, 2))}
    for name, k in (("above", n // 8 + 1), ("edge", n // 8), ("below", n // 8 - 1)):
        members[name] = set(rng.sample(range(3, n), k))
    e2c = {e: [f"{e}-c{j}" for j in range(1 + i % 3)] for i, e in enumerate([*members, *light])}
    plain = []
    for i in range(n):
        ents = [e for e in members if i in members[e]]
        ents += rng.sample(light, 4 - len(ents))
        plain.append((f"P{i:03d}", [(e, rng.choice(e2c[e])) for e in ents]))
    plain[2] = ("P002", [("hub", "hub-c0"), ("l30", "l30-c0"), ("l45", "l45-c0"), ("hub", "hub-c0")])
    return plain, e2c


def test_hub_entities_match_the_oracle():
    plain, e2c = hub_instance()
    held = Counter(e for _, steps in plain for e in {e for e, _ in steps})
    assert (held["hub"], held["above"], held["edge"], held["below"]) == (120, 31, 30, 29)
    assert max(n for e, n in held.items() if e.startswith("l")) < 30
    # the three entities on at least n/8 paths raise densely, the rest by position
    raises = _RankedPaths(_paths(plain)).raises
    assert {e for e, (at, _) in raises.items() if isinstance(at, slice)} == {"hub", "above", "edge"}
    total = len({c for chunks in e2c.values() for c in chunks})
    for r, l, seed in ((1.0, 12, 0), (0.5, 20, 1)):
        got, _ = impl_transcript(plain, e2c, total, r, l, seed=seed)
        assert got == secondary_sampling_oracle(plain, e2c, total, r, l, seed=seed)
        assert any(entry["returned"] for entry in got["subsets"])


@st.composite
def picked_paths(draw):
    """9-40 paths of one to five steps, with ``hub`` on at least half of them and
    ``solo`` on the first only, so both raise forms occur; plus starting use
    counts and an order of picks."""
    n = draw(st.integers(min_value=9, max_value=40))
    light = st.sampled_from([f"e{i}" for i in range(20)])
    plain = []
    for i in range(n):
        steps = draw(st.lists(light, min_size=1, max_size=3))
        if i == 0:
            steps.append("solo")
        if i < (n + 1) // 2 or draw(st.booleans()):
            steps.insert(draw(st.integers(0, len(steps))), "hub")
        plain.append((f"P{i}", [(e, "c") for e in steps]))
    entities = sorted({e for _, steps in plain for e, _ in steps})
    counts = Counter(draw(st.dictionaries(st.sampled_from(entities), st.integers(0, 50))))
    order = draw(st.permutations(range(n)))
    return _paths(plain), counts, order


@settings(max_examples=60, deadline=None)
@given(picked_paths())
def test_raised_utilization_equals_a_recount_after_every_pick(instance):
    paths, counts, order = instance
    ranked = _RankedPaths(paths)
    forms = {isinstance(at, slice) for at, _ in ranked.raises.values()}
    assert forms == {True, False}
    utilization = ranked.utilization(counts)
    untaken = set(range(len(paths)))
    for pos in order:
        utilization[pos] = _TAKEN
        ranked.raise_sharing(utilization, paths[pos])
        counts.update(paths[pos].entities())
        untaken.discard(pos)
        rows = sorted(untaken)
        assert (utilization[rows] == ranked.utilization(counts)[rows]).all()


def test_entity_repeated_on_a_path_counts_per_step():
    # After P0, Q holds "a" twice (utilization 2) and S once (1): S goes first.
    plain = [
        ("P0", [("a", "c1"), ("b", "c2")]),
        ("Q", [("a", "c1"), ("y", "c3"), ("a", "c4")]),
        ("R", [("z", "c5"), ("w", "c6")]),
        ("S", [("a", "c4"), ("v", "c7")]),
    ]
    e2c = {"a": ["c1", "c4"], "b": ["c2"], "y": ["c3"], "z": ["c5"], "w": ["c6"], "v": ["c7"]}
    transcript, _ = impl_transcript(plain, e2c, 50, 1.0, 10, seed=0)
    assert transcript == secondary_sampling_oracle(plain, e2c, 50, 1.0, 10, seed=0)
    assert transcript["subsets"][0]["selection_order"] == ["P0", "R", "S", "Q"]


def test_conservation_every_path_retained_once():
    for seed in (3, 14, 27):
        rng = random.Random(seed)
        plain, e2c, total, r, l = random_balance_instance(rng)
        _, subsets = impl_transcript(plain, e2c, total, r, l, seed=seed)
        retained = [p.path_id for s in subsets for p in s.cot_paths]
        assert sorted(retained) == sorted(pid for pid, _ in plain)
        assert len(retained) == len(set(retained))


def test_minimum_selection_property():
    for seed in (5, 21):
        rng = random.Random(seed)
        plain, e2c, total, r, l = random_balance_instance(rng)
        transcript, _ = impl_transcript(plain, e2c, total, r, l, seed=seed)
        steps_by_id = dict(plain)
        index = {pid: i for i, (pid, _) in enumerate(plain)}
        counts: Counter = Counter()
        remaining = set(steps_by_id)
        for entry in transcript["subsets"]:
            for pid in entry["selection_order"]:
                util = lambda q: sum(counts[e] for e, _ in steps_by_id[q])
                chosen = (util(pid), index[pid])
                assert chosen == min((util(q), index[q]) for q in remaining)
                for e, _ in steps_by_id[pid]:
                    counts[e] += 1
                remaining.discard(pid)
            for pid in entry["returned"]:
                for e, _ in steps_by_id[pid]:
                    counts[e] -= 1
                remaining.add(pid)
            for (ex, _), (ey, _) in entry["cc"]:
                counts[ex] += 1
                counts[ey] += 1


def test_cc_pairs_disjoint_and_from_sparse():
    transcript, subsets = impl_transcript(SIX_PATHS, SIX_E2C, 48, 1.0, 3, seed=2)
    for entry in transcript["subsets"]:
        seen = set()
        for (ex, _), (ey, _) in entry["cc"]:
            assert ex != ey
            assert ex not in seen and ey not in seen
            seen.update({ex, ey})
            assert ex in entry["sparse"] and ey in entry["sparse"]


def test_balance_effect_on_zipf_instance():
    # Entity path-memberships are Zipf-skewed; subset 0 must be flatter
    # than the raw path set.
    rng = random.Random(8)
    n_entities = 30
    entities = [f"e{i:02d}" for i in range(n_entities)]
    weights = [1.0 / (i + 1) for i in range(n_entities)]
    e2c = {e: [f"c{i:02d}"] for i, e in enumerate(entities)}
    plain = []
    for i in range(60):
        a, b = rng.choices(range(n_entities), weights=weights, k=2)
        while b == a:
            (b,) = rng.choices(range(n_entities), weights=weights)
        plain.append((f"P{i}", [(entities[a], f"c{a:02d}"), (entities[b], f"c{b:02d}")]))
    raw_counts = Counter()
    for _, steps in plain:
        for e, _ in steps:
            raw_counts[e] += 1

    def cv(counts):
        values = [counts.get(e, 0) for e in entities]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return (var**0.5) / mean if mean else 0.0

    _, subsets = impl_transcript(plain, e2c, 60, 0.99, 15, seed=1)
    subset0 = _recount(subsets[:1])
    assert cv(subset0) < cv(raw_counts)


def test_auto_resolution_in_secondary_sampling():
    # 4 corpus chunks and one-hop paths resolve auto to l = floor(4/2) = 2;
    # coverage hits 1.0 on the second selection, before the CC branch.
    plain = [("P1", [("a", "c1"), ("b", "c2")]), ("P2", [("c", "c3"), ("d", "c4")])]
    e2c = {"a": ["c1"], "b": ["c2"], "c": ["c3"], "d": ["c4"]}
    subsets = secondary_sampling(
        PathSet(paths=_paths(plain)),
        BalanceConfig(target_coverage=1.0, standard_length="auto"),
        entity_to_chunks=e2c,
        total_chunks=4,
    )
    assert len(subsets) == 1
    retained = [p.path_id for s in subsets for p in s.cot_paths]
    assert sorted(retained) == ["P1", "P2"]


def test_load_subsets_rejects_unknown_path_ids(tmp_path):
    _, subsets = impl_transcript(SIX_PATHS, SIX_E2C, 24, 1.0, 3, seed=5)
    save_subsets(tmp_path / "subsets.jsonl", subsets)
    loaded = load_subsets(tmp_path / "subsets.jsonl", PathSet(paths=_paths(SIX_PATHS)))
    assert [[p.path_id for p in s.cot_paths] for s in loaded] == [
        [p.path_id for p in s.cot_paths] for s in subsets
    ]
    missing = subsets[1].cot_paths[0].path_id
    known = [(pid, steps) for pid, steps in SIX_PATHS if pid != missing]
    with pytest.raises(IntegrityError, match=f"subset 1 .*'{missing}'"):
        load_subsets(tmp_path / "subsets.jsonl", PathSet(paths=_paths(known)))
