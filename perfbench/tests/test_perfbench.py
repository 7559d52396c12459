"""Tests for the benchmark itself: generator, checker, tracer and counter.

    python3 -m pytest perfbench/tests -q

Run from the repository root.
"""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from check import check_job  # noqa: E402
from counters import CounterUnavailable, InstructionCounter  # noqa: E402
from gen import BELOW_FLOOR, WORKLOADS, generate  # noqa: E402
from tracer import Span, Tracer, layer_totals, self_times  # noqa: E402


def _files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    jobs_a, props_a = generate(workload, 7, ROOT / "fixtures", a)
    jobs_b, props_b = generate(workload, 7, ROOT / "fixtures", b)
    generate(workload, 8, ROOT / "fixtures", c)
    assert _files(a) == _files(b)
    assert json.dumps(jobs_a).replace(str(a), "") == json.dumps(jobs_b).replace(str(b), "")
    assert props_a == props_b
    assert _files(a) != _files(c)


C4 = "0 1\n1 2\n2 3\n3 0\n"


def _certify_job(tmp_path, **extra):
    path = tmp_path / "c4.edges"
    path.write_text(C4)
    return {"id": "c4/qhfm", "kind": "certify", "graph": str(path), **extra}


def _certify_output(**overrides):
    data = {"matching_value": "2", "mwfm_value": "2", "s": "1", "s_hat": "1", "kappa": 0.5,
            "r": 0.9, "guarantee": 0.9, "energy": 3.7, "achieved_vs_bound": 0.925}
    data.update(overrides)
    return {"stdout": json.dumps(data), "stderr": ""}


def test_checker_accepts_a_consistent_output(tmp_path):
    job = _certify_job(tmp_path)
    out = _certify_output()
    recorded = json.loads(out["stdout"])
    assert check_job(job, "ok", out, recorded) == (False, [])


def test_checker_flags_a_changed_fraction(tmp_path):
    job = _certify_job(tmp_path, exact={"s_hat": "1"})
    recorded = json.loads(_certify_output()["stdout"])
    failed, problems = check_job(job, "ok", _certify_output(mwfm_value="5/2", s_hat="9/10"), recorded)
    assert failed
    assert any("networkx" in p for p in problems)  # independent of recorded values
    assert any("exact value" in p for p in problems)
    assert any("recorded" in p for p in problems)


def test_checker_flags_guarantee_above_achieved(tmp_path):
    failed, problems = check_job(_certify_job(tmp_path), "ok", _certify_output(guarantee=0.93), None)
    assert failed and any("above achieved" in p for p in problems)


def test_checker_flags_a_negative_slack(tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text(C4)
    job = {"id": "oracle4", "kind": "oracle", "graph": str(path)}
    data = {"lambda_max": 6.000001, "fm_value": 2.0, "bound": 6.0, "slack": -1e-6}
    failed, problems = check_job(job, "ok", {"stdout": json.dumps(data), "stderr": ""}, None)
    assert failed and any("slack" in p for p in problems)


def test_checker_counts_a_known_failure_without_a_problem(tmp_path):
    job = _certify_job(tmp_path, known_failure="MagicStateError")
    err = json.dumps({"error": {"type": "MagicStateError", "message": "21 common neighbours"}})
    assert check_job(job, "exit 1", {"stdout": "", "stderr": err}, None) == (True, [])
    other = json.dumps({"error": {"type": "OracleError", "message": "cap"}})
    failed, problems = check_job(job, "exit 1", {"stdout": "", "stderr": other}, None)
    assert failed and problems


def test_checker_flags_energy_below_floor():
    job = {"id": "sweep", "kind": "energy", "props": {"edges": 3}}
    out = {"edges": 3, "energies": [1.0], "min_floor_slack": -1e-6}
    failed, problems = check_job(job, "ok", out, None)
    assert failed and any("floor" in p for p in problems)


def test_checker_counts_a_known_invariant_failure_only_when_it_is_the_only_one():
    job = {"id": "sweep", "kind": "energy", "props": {"edges": 3}, "known_failure": BELOW_FLOOR}
    out = {"edges": 3, "energies": [1.0], "min_floor_slack": -0.2}
    assert check_job(job, "ok", out, dict(out, min_floor_slack=-0.25)) == (True, [])
    assert check_job(job, "ok", dict(out, min_floor_slack=0.0), out) == (False, [])
    failed, problems = check_job(job, "ok", dict(out, edges=2), out)
    assert failed and any("edges evaluated" in p for p in problems)
    failed, problems = check_job(job, "ok", out, dict(out, energies=[1.1]))
    assert failed and any("energies" in p for p in problems)


def _fed_function_attributes() -> dict:
    import importlib

    snapshot = {}
    for name in ("fed", "fed.graph", "fed.lp", "fed.matching", "fed.ratio", "fed.magic",
                 "fed.oracle", "fed.certificate", "fed.cli"):
        mod = importlib.import_module(name)
        for attr, value in vars(mod).items():
            if callable(value):
                snapshot[(name, attr)] = value
    return snapshot


def test_tracer_wraps_then_restores_every_attribute():
    import fed.cli
    import fed.oracle

    before = _fed_function_attributes()
    tracer = Tracer()
    tracer.install()
    try:
        for mod, attr in (("fed.cli", "load_graph_file"), ("fed.oracle", "mwfm"),
                          ("fed.oracle", "eigsh"), ("fed.lp", "maximize")):
            assert getattr(sys.modules[mod], attr) is not before[(mod, attr)]
        tracer.job = "c4"
        assert fed.cli.main(["certify", str(ROOT / "fixtures" / "c4.edges"), "--format", "json"]) == 0
    finally:
        tracer.restore()
    assert all(after is before[key] for key, after in _fed_function_attributes().items())
    names = {s.name for s in tracer.spans}
    assert {"fed.cli.main", "fed.certificate.certify", "fed.lp.maximize"} <= names
    assert tracer.counters["matching.mwfm_calls"] == 2
    assert tracer.counters["lp.solves"] == 2
    assert all(s.job == "c4" for s in tracer.spans)


def test_tracer_attributes_an_error_to_the_layer_that_raised_it(tmp_path):
    import fed.cli

    path = tmp_path / "loop.edges"
    path.write_text("0 0\n")
    tracer = Tracer()
    tracer.install()
    try:
        assert fed.cli.main(["certify", str(path), "--format", "json"]) == 1
    finally:
        tracer.restore()
    totals = layer_totals(tracer.spans)
    assert totals["graph"]["errors"] == 1
    assert totals["cli"]["errors"] == 0  # passed up through cmd_certify, caught in main


def test_self_time_is_span_time_minus_child_span_time():
    spans = [
        Span("root", "cli", 0, 100),
        Span("a", "certificate", 10, 40, parent=0),
        Span("b", "matching", 50, 90, parent=0),
        Span("c", "lp", 60, 70, parent=2),
        Span("d", "lp", 75, 85, parent=2),
    ]
    assert self_times(spans) == [30, 30, 20, 10, 10]
    totals = layer_totals(spans)
    assert totals["lp"]["self_ns"] == 20
    assert sum(t["self_ns"] for t in totals.values()) == 100


def test_instruction_count_grows_with_the_work_and_repeats():
    try:
        counter = InstructionCounter()
    except CounterUnavailable as exc:
        pytest.skip(f"no hardware instruction counter: {exc}")

    def count(n):
        before = counter.read()
        sum(i * i for i in range(n))
        return counter.read() - before

    try:
        small, large, again = count(10_000), count(100_000), count(100_000)
    finally:
        counter.close()
    assert 5 * small < large
    assert abs(again - large) < 0.05 * large
