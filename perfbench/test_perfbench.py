"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench

The replay tests run the traced CLI on tiny scenes in child processes, so
they take a few seconds and leave the test process's modules untouched.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
from run import END_TO_END, HERE, ROOT, THREAD_PIN, WORK, per_layer_units
from workloads import WORKLOADS, CheckError, check_output, compare_reference, expected_counts, load_reference

TINY_SCENE = {
    "name": "tiny",
    "N": 2,
    "K": 8,
    "n": 48,
    "sigma2": 1.0,
    "clutter": {"kind": "scatterers", "scatterers": [{"amplitude": 3.0, "theta": 0.3, "doppler": 0.1}]},
}


@pytest.fixture()
def scratch():
    path = WORK / f"test-{id(object())}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


class FakeClock:
    """Advances by a fixed step on every reading."""

    def __init__(self, step: int):
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now


def test_self_times_of_nested_spans_sum_to_parent():
    tr = tracer.Tracer(clock=FakeClock(1_000_000))
    inner = tr.wrap("inner", lambda: None)
    leaf = tr.wrap("leaf", lambda: None)
    middle = tr.wrap("middle", lambda: leaf())
    outer = tr.wrap("outer", lambda: (inner(), middle(), inner()))
    outer()
    spans = tr.spans
    self_s = tr.self_times()
    assert [s.name for s in spans] == ["outer", "inner", "middle", "leaf", "inner"]
    assert [s.parent for s in spans] == [None, 0, 0, 2, 0]
    for i, span in enumerate(spans):
        children = sum(spans[j].end - spans[j].start for j, c in enumerate(spans) if c.parent == i)
        assert self_s[i] * 1e9 + children == pytest.approx(span.end - span.start)
    # the self times of the whole tree add up to the root's duration
    assert sum(self_s) * 1e9 == pytest.approx(spans[0].end - spans[0].start)
    summary = tr.summary()
    assert summary["inner"]["calls"] == 2
    assert summary["leaf"]["self_s"] == pytest.approx(1e-3)


def test_span_closes_when_the_call_raises():
    tr = tracer.Tracer(clock=FakeClock(1))

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tr.wrap("fail", fail)()
    after = tr.wrap("after", lambda: None)
    after()
    assert tr.spans[1].parent is None


def test_tail_percentile_needs_ten_samples_beyond():
    assert tracer.tail_percentile(list(range(19))) is None
    assert tracer.tail_percentile(list(range(20)))[0] == "p50"
    assert tracer.tail_percentile(list(range(100)))[0] == "p90"
    assert tracer.tail_percentile(list(range(1000)))[0] == "p99"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_outputs_pass_their_own_checks(name):
    w = WORKLOADS[name]
    refs = load_reference(w, HERE / "reference")
    assert refs
    for text in refs.values():
        compare_reference(w, check_output(w, text), text)


def _corrupt_est(text: str, col: str, value: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index(col)] = value
    return "\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n"


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda t: _corrupt_est(t, "rho_shrinkage", "nan"),
        lambda t: _corrupt_est(t, "rho_rcml", "1.02"),
        lambda t: _corrupt_est(t, "rho_rcml", "0"),
        lambda t: _corrupt_est(t, "stein_loss_shrinkage", "-0.5"),
        lambda t: _corrupt_est(t, "n", "1000"),
        lambda t: t.replace("stein_loss_rcml", "stein_rcml", 1),
        lambda t: "\n".join(t.splitlines()[:-1]) + "\n",  # a grid row missing
        lambda t: "\n".join(line.rsplit(",", 1)[0] for line in t.splitlines()) + "\n",  # a column missing
        lambda t: "",
    ],
)
def test_output_check_rejects_corrupted_csv(corrupt):
    w = WORKLOADS["est-nsweep"]
    text = next(iter(load_reference(w, HERE / "reference").values()))
    with pytest.raises(CheckError):
        check_output(w, corrupt(text))


def test_reference_comparison_rejects_drift_and_changed_detections():
    w = WORKLOADS["est-nsweep"]
    text = next(iter(load_reference(w, HERE / "reference").values()))
    row = text.splitlines()[1].split(",")
    drifted = _corrupt_est(text, "stein_loss_rcml", repr(float(row[-1]) * (1 + 1e-4)))
    with pytest.raises(CheckError):
        compare_reference(w, check_output(w, drifted), text)

    d = WORKLOADS["det-snrsweep"]
    ref = next(iter(load_reference(d, HERE / "reference").values()))
    lines = ref.splitlines()
    cells = lines[1].split(",")
    cells[2] = "0" if float(cells[2]) else "1"  # one detection flipped
    flipped = "\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n"
    with pytest.raises(CheckError):
        compare_reference(d, check_output(d, flipped), ref)


def test_clt_check_rejects_out_of_range_p_value():
    w = WORKLOADS["clt-p1024"]
    payload = json.loads(next(iter(load_reference(w, HERE / "reference").values())))
    payload[0]["p_value"] = 1.5
    with pytest.raises(CheckError):
        check_output(w, json.dumps(payload))


def _replay(scratch: Path, argv: list[str], script: str | None = None) -> dict:
    """Run the traced CLI in a child; ``script`` replaces the replay entry point."""
    env = {**THREAD_PIN, "PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    result = scratch / "layers.json"
    if script is None:
        cmd = [sys.executable, str(HERE / "child.py"), "replay", str(result), *argv]
    else:
        cmd = [sys.executable, "-c", script, str(result), *argv]
    proc = subprocess.run(cmd, cwd=HERE, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(result.read_text())["layers"]
    return {name: row["calls"] for name, row in layers.items()}


def _tiny_workloads(scratch: Path) -> list[tuple[object, list[str]]]:
    cfg = scratch / "tiny.json"
    cfg.write_text(json.dumps(TINY_SCENE))
    out = str(scratch / "out")
    est = dataclasses.replace(WORKLOADS["est-nsweep"], trials=2, grid=(16, 32, 48), p=16, scenario="tiny")
    det = dataclasses.replace(WORKLOADS["det-snrsweep"], trials=2, grid=(0.0, 10.0), p=16)
    clt = dataclasses.replace(WORKLOADS["clt-p1024"], trials=3, p=40)
    return [
        (est, ["sweep", "--axis", "n", "--config", str(cfg), "--trials", "2", "--seed", "5", "--out-dir", out]),
        (
            det,
            [
                "sweep", "--axis", "snr", "--config", str(cfg), "--trials", "2", "--pfa", "1e-2,1e-3",
                "--snr-lo", "0", "--snr-hi", "10", "--snr-step", "10", "--seed", "5", "--out-dir", out,
            ],
        ),
        (clt, ["verify-clt", "--p", "40", "--gamma", "0.5", "--trials", "3", "--seed", "5", "--out-dir", out]),
    ]


def test_traced_call_counts_match_workload_shape(scratch):
    for w, argv in _tiny_workloads(scratch):
        counts = _replay(scratch, argv)
        got = {name: counts.get(name, 0) for name in expected_counts(w)}
        assert got == expected_counts(w), w.name
        check_output(w, (scratch / "out" / w.output).read_text())


MISSED_BINDING = """
import sys
sys.argv = ["child.py", "replay", *sys.argv[1:]]
import cluttercov.scenario, child, tracer
install = tracer.install

def install_but_miss_scenario_eigh(tr):
    original = cluttercov.scenario.eigh
    install(tr)
    cluttercov.scenario.eigh = original

tracer.install = install_but_miss_scenario_eigh
sys.exit(child.replay(sys.argv[2], sys.argv[3:]))
"""


def test_a_missed_binding_breaks_the_count_check(scratch):
    w, argv = _tiny_workloads(scratch)[0]
    counts = _replay(scratch, argv, script=MISSED_BINDING)
    # truth_spiked_model and SnapshotSampler call eigh through scenario's own name
    assert counts["rmt.eigh"] == expected_counts(w)["rmt.eigh"] - 2


def test_benchmark_refuses_a_tree_without_the_program(scratch):
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "est-nsweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
