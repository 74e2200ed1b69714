import dataclasses
import itertools
import sys
import types

import pytest

import configs
import run
import workloads
from recorder import Recorder, WrapPoint, self_time_by_name, self_times


def test_self_time_subtracts_children_on_synthetic_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 7.0, 3),
        ("e", 6.5, 8.0, 3),  # overlaps d: the covered part is counted once
        ("f", 8.5, 12.0, 3),  # runs past its parent: clipped to it
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 3.5])


def test_self_times_of_properly_nested_spans_add_up_to_the_root():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("x", 1.0, 4.0, 0),
        ("y", 2.0, 3.0, 1),
        ("x", 5.0, 9.0, 0),
        ("y", 6.0, 7.0, 3),
    ]
    totals = self_time_by_name(spans)
    assert totals == pytest.approx({"root": 3.0, "x": 5.0, "y": 2.0})
    assert sum(totals.values()) == pytest.approx(10.0)


@pytest.fixture
def toy_module(monkeypatch):
    module = types.ModuleType("toy_layer")

    def inner(n):
        return n + 1

    def outer(n):
        return module.inner(n) * 2

    class Source:
        def draw(self, k):
            return list(range(k))

    module.inner, module.outer, module.Source = inner, outer, Source
    monkeypatch.setitem(sys.modules, "toy_layer", module)
    return module


def test_wrappers_record_nested_spans_and_counts(toy_module):
    ticks = itertools.count()
    recorder = Recorder(clock=lambda: float(next(ticks)))
    recorder.install(
        [
            WrapPoint("toy_layer:outer", span="outer_s"),
            WrapPoint("toy_layer:inner", span="inner_s", count="inner_calls"),
            WrapPoint("toy_layer:Source.draw", count="draws", tally=lambda a, kw, r: len(r)),
            WrapPoint("toy_layer:gone", span="gone_s"),
        ]
    )
    try:
        root = recorder.open(Recorder.ROOT)
        assert toy_module.outer(1) == 4
        assert toy_module.Source().draw(3) == [0, 1, 2]
        recorder.close(root)
    finally:
        recorder.restore()
    # One tick per clock read: root opens at 0, outer spans 1..4, inner 2..3.
    assert recorder.spans() == [
        (Recorder.ROOT, 0.0, 5.0, -1),
        ("outer_s", 1.0, 4.0, 0),
        ("inner_s", 2.0, 3.0, 1),
    ]
    assert self_time_by_name(recorder.spans()) == {Recorder.ROOT: 2.0, "outer_s": 2.0, "inner_s": 1.0}
    assert recorder.counts == {"inner_calls": 1, "draws": 3}
    assert recorder.missing == ["toy_layer:gone"]


def test_restore_puts_back_module_and_class_bindings(toy_module):
    inner, outer, draw = toy_module.inner, toy_module.outer, vars(toy_module.Source)["draw"]
    recorder = Recorder()
    recorder.install(
        [
            WrapPoint("toy_layer:inner", span="s"),
            WrapPoint("toy_layer:outer", span="s"),
            WrapPoint("toy_layer:Source.draw", count="n"),
        ]
    )
    assert toy_module.inner is not inner
    recorder.restore()
    assert toy_module.inner is inner and toy_module.outer is outer
    assert vars(toy_module.Source)["draw"] is draw


def _bindings():
    found = {}
    for point in workloads.WRAP_POINTS:
        module, _, path = point.target.partition(":")
        owner = sys.modules[module]
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        found[point.target] = vars(owner)[attr]
    return found


@pytest.fixture
def small_detect(monkeypatch, tmp_path):
    monkeypatch.setattr(configs, "DETECT_TRIALS", 4)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(run, "TRACE_PASSES", 1)
    return dataclasses.replace(workloads.WORKLOADS["detect"], trace_ops=2)


def test_traced_run_restores_every_wrapped_name(small_detect, tmp_path):
    before = _bindings()
    traced = run.trace(small_detect, seed=5, workdir=tmp_path)
    assert _bindings() == before
    assert traced["problems"] == []
    metrics = traced["metrics"]
    assert list(metrics) == list(workloads.layer_metrics())
    assert metrics["rng.streams"]["value"] > 0
    assert metrics["protocol.check1_s"]["value"] > 0
    assert (tmp_path / "out" / "spans-detect.json").is_file()


def test_a_vanished_wrap_point_is_reported_missing_not_zero(small_detect, tmp_path, monkeypatch):
    points = workloads.WRAP_POINTS + [
        WrapPoint("eprqkd.quantum:retired_kernel", span="quantum.retired_s"),
        WrapPoint("eprqkd.nonexistent_module:anything", count="gone.calls"),
    ]
    monkeypatch.setattr(workloads, "WRAP_POINTS", points)
    metrics = run.trace(small_detect, seed=5, workdir=tmp_path)["metrics"]
    assert metrics["quantum.retired_s"] == {
        "value": None,
        "unit": "s",
        "missing": ["eprqkd.quantum:retired_kernel"],
    }
    assert metrics["gone.calls"]["value"] is None
    assert "missing" not in metrics["quantum.measure_s"]
