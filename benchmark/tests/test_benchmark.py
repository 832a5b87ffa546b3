"""Tests of the benchmark's own logic: the output checker, the self-time
arithmetic of the trace, tolerance of missing functions, the seeded
random batch, and the speed probe.  Run from the repository root:

    python3 -m pytest -q benchmark/tests
"""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import check  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Borel model of a point: Q[alpha], alpha in degree 2 and odd under the
# involution, so H^2k is one class in the (-1)^k eigenspace.
POINT = {"argv": ["eigen", "point.model", "--max-degree", "6"], "space": "borel", "degrees": [2], "cap": 6}
POINT_TABLE = """\
n  dim  betti  inv_plus  inv_minus
0    1      1         1          0
1    0      0         0          0
2    1      1         0          1
3    0      0         0          0
4    1      1         1          0
5    0      0         0          0
"""
PSEUDO = {"argv": ["pseudoisotopy", "x.model", "--max-degree", "6"], "space": None, "degrees": [7], "cap": 6}
PSEUDO_TABLE = """\
i  invP_plus  invP_minus  invA_plus  invA_minus
0          0           0          0           0
1          0           0          0           0
2          0           0          0           0
3          1           0          0           1
"""


def ok(stdout):
    return {"code": 0, "error": None, "stdout": stdout}


def test_checker_accepts_correct_tables():
    assert check.check_output(POINT, ok(POINT_TABLE)) == []
    assert check.check_output(PSEUDO, ok(PSEUDO_TABLE)) == []
    assert check.check_output(POINT, ok(POINT_TABLE), check.digest(POINT_TABLE)) == []


def test_checker_accepts_json_payload():
    rows = [r.split() for r in POINT_TABLE.splitlines()[1:]]
    payload = {"degrees": [dict(zip(check.DEGREE_COLUMNS, map(int, r))) for r in rows]}
    assert check.check_output(POINT, ok(json.dumps(payload))) == []


@pytest.mark.parametrize(
    "old, new, reason",
    [
        ("2    1      1         0          1", "2    1      1         1          1", "inv_plus + inv_minus"),
        ("2    1      1         0          1", "2    2      1         0          1", "monomials"),
        ("4    1      1         1          0", "4    1      2         1          0", "outside"),
        ("0    1      1         1          0", "0    1      0         0          0", "betti 0 != 1"),
        ("5    0      0         0          0\n", "", "degrees are not"),
        ("n  dim", "n  size", "header"),
    ],
)
def test_checker_rejects_corrupted_table(old, new, reason):
    corrupted = POINT_TABLE.replace(old, new)
    assert corrupted != POINT_TABLE
    errors = check.check_output(POINT, ok(corrupted))
    assert any(reason in e for e in errors), errors


def test_checker_rejects_broken_pseudoisotopy_identity():
    corrupted = PSEUDO_TABLE.replace("3          1           0          0           1", "3          1           0          0           2")
    assert any("invA_minus" in e for e in check.check_output(PSEUDO, ok(corrupted)))


def test_checker_rejects_digest_mismatch_failure_and_exception():
    assert any("digest" in e for e in check.check_output(POINT, ok(POINT_TABLE), "0" * 64))
    assert check.check_output(POINT, {"code": 1, "error": None, "stdout": ""}) == ["exit code 1"]
    raised = {"code": None, "error": "RuntimeError: boom", "stdout": ""}
    assert check.check_output(POINT, raised) == ["raised RuntimeError: boom"]
    assert check.check_output(POINT, ok("{not json"))[0].startswith("unreadable output")


def span(sid, parent, layer, start, end, stats=None, request=0):
    return [sid, parent, request, layer, f"f{sid}", start, end, stats]


def test_self_times_on_hand_built_tree():
    spans = [
        span(0, None, "cli", 0.0, 10.0),
        span(1, 0, "cohomology", 1.0, 4.0),
        span(2, 0, "cohomology", 5.0, 9.0),
        span(3, 2, "linalg.kernel", 6.0, 7.0),
        span(4, 2, "linalg.kernel", 6.5, 8.0),  # overlaps its sibling: covered once
        span(5, 1, "linalg.span", 0.5, 2.0),  # starts before its parent: clipped
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 1.5, 5: 1.5})


def test_layer_metrics_partition_requests():
    spans = [
        span(0, None, "cli", 0.0, 10.0),
        span(1, 0, "cohomology", 1.0, 9.0, {"degrees": 6}),
        span(2, 1, "linalg.kernel", 2.0, 4.0, {"rows": 3, "cols": 5}),
        span(3, 2, "linalg.kernel", 2.5, 3.0, {"rows": 3, "cols": 5}),  # nested call, same layer
        span(4, 1, "linalg.kernel", 5.0, 6.0, {"rows": 2, "cols": 7}),
        span(5, 1, "trace", 6.0, 6.5),
        span(6, None, "cli", 20.0, 22.0, request=1),
    ]
    m = tracing.layer_metrics(spans)
    assert m["cli.s"] == pytest.approx(2.0 + 2.0)
    assert m["cohomology.s"] == pytest.approx(8.0 - 3.0 - 0.5)
    assert m["linalg.kernel_s"] == pytest.approx(3.0)
    assert m["linalg.kernel_calls"] == 2
    assert m["linalg.kernel_entries"] == 15 + 14
    assert m["linalg.max_cols"] == 7
    assert m["cohomology.degrees"] == 6
    assert m["trace.coverage"] == pytest.approx(1.0)


def test_missing_functions_report_zero(monkeypatch):
    fake = types.ModuleType("loopinv._bench_fake")
    fake.present = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "loopinv._bench_fake", fake)
    layers = {
        "linalg.kernel": ["loopinv._bench_fake:kernel_and_pivots", "no_such_module_xyz:rank"],
        "cohomology": ["loopinv._bench_fake:present"],
    }
    tracer = tracing.install(tracing.Tracer(), layers)
    assert tracer.missing == ["loopinv._bench_fake:kernel_and_pivots", "no_such_module_xyz:rank"]
    assert fake.present(1) == 2  # wrapped at its use site, behaviour unchanged
    m = tracing.layer_metrics(tracer.spans)
    assert m["linalg.kernel_calls"] == 0 and m["linalg.kernel_s"] == 0
    assert m["linalg.kernel_entries"] == 0 and m["linalg.max_cols"] == 0
    assert [s[tracing.LAYER] for s in tracer.spans if s[tracing.LAYER] != "trace"] == ["cohomology"]
    assert set(m) >= {name for pair in tracing.LAYER_METRICS.values() for name in pair if name}


def test_random_batch_is_seeded_and_balanced():
    a, b = workloads.random_batch(7), workloads.random_batch(7)
    assert a == b and a != workloads.random_batch(8)
    assert len(a) == workloads.RANDOM_MODELS
    costs = [workloads.model_cost(degrees) for _, degrees in a]
    lo, hi = workloads.COST_RANGE
    assert all(lo <= c <= hi for c in costs)
    assert abs(sum(costs) - workloads.RANDOM_BUDGET) <= workloads.BUDGET_SLACK * workloads.RANDOM_BUDGET
    for text, degrees in a:
        assert workloads.model_degrees(text) == degrees
        dims = workloads.cochain_dims(workloads.space_degrees(degrees, "borel"), workloads.RANDOM_CAP + 1)
        assert max(dims) <= workloads.RANDOM_MAX_COCHAIN_DIM


def test_probe_speed_is_mean_of_reference_over_duration():
    assert probe.work() == probe.work() == len(probe.MATRIX)
    ref = probe.REF_S
    assert probe.speed([ref]) == pytest.approx(1.0)
    # a probe twice as fast counts double, one twice as slow counts half
    assert probe.speed([ref / 2, 2 * ref]) == pytest.approx(1.25)
    p = probe.Probe()
    p.sample(3)
    assert len(p.durations) == 3 and p.spent == pytest.approx(sum(p.durations))


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = set(tracing.layer_metrics([])) | {"trace.overhead_s"}
    assert traced == set(per_layer)
    assert all(run.unit_of(name) == unit for name, unit in per_layer.items())
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_ref_s", "peak_rss_mb", "setup_s"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
