"""Tests of the benchmark's own machinery: span recorder, correctness gate, contract.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import threading

import pytest

import child
import oracle
import run
import workloads
from spans import SpanRecorder, install, uninstall

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_are_not_double_counted():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("outer"):
        clock.now += 1.0
        with rec.span("inner"):
            clock.now += 2.0
            with rec.span("leaf"):
                clock.now += 4.0
        with rec.span("inner"):
            clock.now += 8.0
        clock.now += 16.0
    stats = rec.snapshot()
    assert stats["outer"] == {"calls": 1, "total_s": 31.0, "self_s": 17.0}
    assert stats["inner"] == {"calls": 2, "total_s": 14.0, "self_s": 10.0}
    assert stats["leaf"] == {"calls": 1, "total_s": 4.0, "self_s": 4.0}
    assert sum(s["self_s"] for k, s in stats.items() if k != "counters") == stats["outer"]["total_s"]


def test_wrapped_function_records_span_and_bytes():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def render(n):
        clock.now += 0.5
        return "x" * n

    traced = rec.wrap(render, "serialize.render")
    assert traced(3) == "xxx" and traced(4) == "xxxx"
    stats = rec.snapshot()
    assert stats["serialize.render"]["calls"] == 2
    assert stats["serialize.render"]["self_s"] == 1.0
    assert stats["counters"]["serialize.render.bytes"] == 7


def test_spans_from_many_threads_lose_no_update():
    rec = SpanRecorder()
    workers, rounds = 8, 300
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(rounds):
                with rec.span("root"):
                    with rec.span("child"):
                        pass

        threads = [threading.Thread(target=work) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    stats = rec.snapshot()
    assert stats["root"]["calls"] == stats["child"]["calls"] == workers * rounds
    # every child closed inside its own thread's root: self times add up to root totals
    total_self = stats["root"]["self_s"] + stats["child"]["self_s"]
    assert total_self == pytest.approx(stats["root"]["total_s"], rel=1e-9, abs=1e-12)


def test_install_and_uninstall_restore_the_library():
    from lrchain import dynamics, harness

    before = (harness.operator_norm, dynamics.EvolutionContext.evolve, harness.ExperimentConfig.__dict__["from_json"])
    undo = install(SpanRecorder())
    assert harness.operator_norm is not before[0]
    assert dynamics.operator_norm is harness.operator_norm
    uninstall(undo)
    after = (harness.operator_norm, dynamics.EvolutionContext.evolve, harness.ExperimentConfig.__dict__["from_json"])
    assert after == before


def _small_inputs(tmp_path, kind):
    if kind == "disorder":
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(workloads.DISORDER, n_realizations=4, seed=9)))
        return str(path)
    config = workloads.write_inputs(workloads.workloads()["verify-L4"], 9, str(tmp_path))
    doc = json.loads(open(config).read())
    model = json.loads((tmp_path / "model.json").read_text())
    model["L"] = 2
    doc.update(observable_a={"site": -2, "op": "sz"}, observable_b={"site": 2, "op": "sz"}, t_grid=[0.1, 0.2])
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "config.json").write_text(json.dumps(doc))
    return config


@pytest.mark.parametrize("kind", ["disorder", "verify"])
def test_self_times_of_a_traced_run_add_up_to_its_wall_time(tmp_path, kind):
    config = _small_inputs(tmp_path, kind)
    result = child.run(kind, config, str(tmp_path / "report"), 1, "trace")
    spans = result["spans"]
    self_sum = sum(s["self_s"] for name, s in spans.items() if name != "counters")
    setup = spans["harness.config_load"]["total_s"]
    entry = spans["harness.entry"]["total_s"]
    assert self_sum - setup == pytest.approx(entry, rel=1e-9)
    assert entry <= result["wall_s"] < entry + 1e-3
    assert spans["operators.operator_norm"]["calls"] > 0
    assert spans["counters"]["serialize.render.bytes"] > 0
    assert os.path.getsize(tmp_path / "report.csv") > 0


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    from lrchain import harness

    workdir = tmp_path_factory.mktemp("verify")
    config = workloads.write_inputs(workloads.workloads()["verify-L4"], 3, str(workdir))
    report = harness.run_verify(harness.ExperimentConfig.from_json(config), write=False)
    return str(workdir), report.to_csv(), report.to_json()


def _perturb(csv_text: str, row: int, column: str, factor: float = 1.0, shift: float = 0.0) -> str:
    lines = csv_text.splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) * factor + shift)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_gate_accepts_the_library_and_rejects_a_perturbed_norm(verify_report):
    workdir, csv_text, json_text = verify_report
    units, failures = oracle.check("verify", workdir, csv_text, json_text)
    assert (units, failures) == (41, [])
    row = 30
    units, failures = oracle.check("verify", workdir, _perturb(csv_text, row, "exact_norm", factor=1 + 1e-6), json_text)
    assert [i for i, _ in failures] == [row]
    units, failures = oracle.check("verify", workdir, _perturb(csv_text, 5, "main", factor=1 + 1e-6), json_text)
    assert [i for i, _ in failures] == [5]


def test_gate_allows_disagreement_below_the_dense_ed_floor(verify_report):
    workdir, csv_text, json_text = verify_report
    # at t = 2/41 the norm is ~1e-11 and the float64 floor ~4e-12: a 1e-13 shift is noise
    units, failures = oracle.check("verify", workdir, _perturb(csv_text, 0, "exact_norm", shift=1e-13), json_text)
    assert failures == []


def test_line_failures_maps_csv_lines_to_units():
    ref = "h\na\nb\nc\nd\n"
    assert run._line_failures(ref, ref, 2) == set()
    assert run._line_failures(ref, "h\na\nb\nc\nX\n", 2) == {1}
    assert run._line_failures(ref, "h\na\n", 2) == {0, 1}


def test_splitmix64_agrees_with_the_library():
    from lrchain.disorder import splitmix64

    for seed, index in ((0, 0), (7, 3), ((1 << 64) - 1, 999)):
        assert oracle.splitmix64(seed, index) == splitmix64(seed, index)


def test_benchmark_json_names_what_the_runner_prints():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [name for name in workloads.workloads() if name not in workloads.UNLISTED]
    assert [w["name"] for w in spec["workloads"]] == listed
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()


def test_values_below_the_float64_floor_are_only_range_checked():
    # a floor above the largest possible value (2 for sz observables) resolves nothing
    assert oracle.agrees(1.5, 3e109, slack=10.0, ceiling=2.0)
    assert not oracle.agrees(2.5, 1.5, slack=10.0, ceiling=2.0)
    assert not oracle.agrees(1.5, 1.2, slack=1e-3, ceiling=2.0)
