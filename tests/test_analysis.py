from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth.analysis import (
    build_report,
    coefficient_of_variation,
    compare_reports,
    counts_from_chunks,
    counts_from_subsets,
    counts_from_synth,
    emit_histogram_svg,
    emit_report_csv,
    entity_distribution,
    gini,
)
from graphsynth.balance import CCPair, SubsetAllocation
from graphsynth.errors import IntegrityError
from graphsynth.synthesis import SynthRecord
from graphsynth.traversal import Path
from oracles import gini_mean_difference

from conftest import make_entity_map


def test_gini_perfect_equality():
    assert gini([5, 5, 5, 5]) == 0.0


def test_gini_hand_derived_case():
    # sorted (1,2,3,4): sum((2i-n-1)*y_i) = -3-2+3+12 = 10; 10/(4*10) = 0.25
    assert gini([1, 2, 3, 4]) == pytest.approx(0.25, abs=1e-12)


def test_gini_empty_and_zero():
    assert gini([]) == 0.0
    assert gini([0, 0]) == 0.0


def test_gini_matches_mean_difference_definition():
    rng = random.Random(4)
    for _ in range(20):
        values = [rng.randint(0, 20) for _ in range(rng.randint(1, 30))]
        assert gini(values) == pytest.approx(gini_mean_difference(values), abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
def test_gini_bounds_property(values):
    g = gini(values)
    n = len(values)
    assert 0.0 <= g <= 1.0 - 1.0 / n + 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=9),
)
def test_scale_invariance_property(values, factor):
    scaled = [v * factor for v in values]
    assert gini(scaled) == pytest.approx(gini(values), abs=1e-9)
    assert coefficient_of_variation(scaled) == pytest.approx(
        coefficient_of_variation(values), abs=1e-9
    )


def test_cv_zero_for_uniform():
    assert coefficient_of_variation([3, 3, 3]) == 0.0
    assert coefficient_of_variation([]) == 0.0


def test_coverage_definition():
    report = build_report({"a": 0, "b": 10})
    assert report.coverage == 0.5


def test_report_histogram_bucket_count():
    report = build_report({"a": 1, "b": 5, "c": 9}, buckets=4)
    assert len(report.histogram) == 4
    assert sum(report.histogram) == 3


def test_counts_from_chunks():
    entity_map = make_entity_map({"e1": ["c1", "c2"], "e2": ["c3"]})
    assert counts_from_chunks(entity_map) == {"e1": 2, "e2": 1}


def _subset():
    return SubsetAllocation(
        subset_index=0,
        cot_paths=[Path(steps=[("e1", "c1"), ("e2", "c2")], path_id="p1")],
        cc_pairs=[CCPair(pair_id="cc-0-0", left=("e2", "c2"), right=("e3", "c3"))],
        achieved_coverage=1.0,
    )


def test_counts_from_subsets_with_and_without_cc():
    entity_map = make_entity_map({"e1": ["c1"], "e2": ["c2"], "e3": ["c3"], "e4": ["c4"]})
    with_cc = counts_from_subsets([_subset()], entity_map, include_cc=True)
    assert with_cc == {"e1": 1, "e2": 2, "e3": 1, "e4": 0}
    without_cc = counts_from_subsets([_subset()], entity_map, include_cc=False)
    assert without_cc == {"e1": 1, "e2": 1, "e3": 0, "e4": 0}


def _record(source_id, strategy="cot", status="ok"):
    return SynthRecord(
        request_id=f"x:{source_id}",
        strategy=strategy,
        source_id=source_id,
        narrative="n",
        qa=[{"question": "q", "answer": "a"}] if strategy == "cot" else None,
        comparison=None if strategy == "cot" else "c",
        input_tokens=1,
        output_tokens=1,
        status=status,
    )


def test_counts_from_synth_resolves_provenance():
    entity_map = make_entity_map({"e1": ["c1"], "e2": ["c2"], "e3": ["c3"]})
    records = [_record("p1"), _record("cc-0-0", strategy="cc"), _record("p1", status="rejected")]
    counts = counts_from_synth(records, [_subset()], entity_map)
    assert counts == {"e1": 1, "e2": 2, "e3": 1}


def test_counts_from_synth_unknown_source():
    entity_map = make_entity_map({"e1": ["c1"]})
    with pytest.raises(IntegrityError, match="ghost"):
        counts_from_synth([_record("ghost")], [_subset()], entity_map)


def test_entity_distribution_dispatch():
    entity_map = make_entity_map({"e1": ["c1", "c2"], "e2": ["c3"]})
    report = entity_distribution("raw", entity_map)
    assert report.counts == {"e1": 2, "e2": 1}
    with pytest.raises(ValueError):
        entity_distribution("bogus", entity_map)


def test_compare_reports_deltas_and_universe_check():
    a = build_report({"e1": 1, "e2": 1})
    b = build_report({"e1": 1, "e2": 3})
    same = compare_reports(a, a)
    assert (same.gini_delta, same.cv_delta, same.coverage_delta, same.top_decile_delta) == (
        0.0,
        0.0,
        0.0,
        0.0,
    )
    delta = compare_reports(b, a)
    assert delta.gini_delta < 0  # a is flatter than b
    with pytest.raises(ValueError):
        compare_reports(a, build_report({"zz": 1}))


def test_csv_emission(tmp_path):
    report = build_report({"e1": 2, "e2": 0})
    out = tmp_path / "report.csv"
    emit_report_csv(report, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "entity_id,count"
    assert len(lines) == 3


def test_csv_empty_report(tmp_path):
    out = tmp_path / "report.csv"
    emit_report_csv(build_report({}), out)
    assert out.read_text().strip().splitlines() == ["entity_id,count"]


def test_svg_histogram_bucket_rects(tmp_path):
    report = build_report({f"e{i}": i for i in range(20)}, buckets=7)
    out = tmp_path / "hist.svg"
    emit_histogram_svg(report, out)
    svg = out.read_text()
    assert svg.count('<rect class="bar"') == 7
    assert svg.startswith("<svg")
