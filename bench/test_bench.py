"""Tests of the benchmark itself: every workload at a tiny size, the metric
names and units against BENCHMARK.json, and the output check."""

import dataclasses
import json

import pytest

import run as bench
from outcheck import check_csv
from workloads import WORKLOADS

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def tiny(workload):
    return dataclasses.replace(
        workload, q=2, n_div=4, n_steps=6,
        m=None if workload.m is None else 1,
        table_N=(2, 4) if workload.table_N else (),
        table_Nref=8 if workload.table_N else 0)


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    result, detail = bench.execute(tiny(WORKLOADS[name]), seed=7, seconds=0,
                                   trace=bool(trace), out_root=tmp_path)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 3
    assert detail["seed"] == 7 and detail["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


def _corrupt(text, row, col, value):
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_accepts_pinned_and_rejects_corruption(name):
    w = WORKLOADS[name]
    pinned = w.pinned_path.read_text()
    assert check_csv(pinned, w.header, w.n_rows, pinned) == []
    value = float(pinned.split("\n")[2].split(",")[2])
    for bad in (repr(value + 1e-6), "inf", "nan"):
        assert check_csv(_corrupt(pinned, 2, 2, bad), w.header, w.n_rows, pinned)
    truncated = "\n".join(pinned.split("\n")[:-2]) + "\n"
    assert check_csv(truncated, w.header, w.n_rows, None)


def test_check_rejects_negative_std():
    w = WORKLOADS["long-history"]
    text = _corrupt(w.pinned_path.read_text(), 3, w.header.index("std"), "-0.5")
    assert any("std < 0" in p for p in check_csv(text, w.header, w.n_rows, None))


def test_run_rejects_csv_bytes_that_differ_across_runs(tmp_path):
    w = WORKLOADS["long-history"]
    run = bench.Run(w, seed=7, out_root=tmp_path)
    good = tmp_path / "good.csv"
    good.write_text(w.pinned_path.read_text())
    assert run.check(good) == []
    other = tmp_path / "other.csv"
    other.write_text(_corrupt(good.read_text(), 1, 2, "0.5"))
    assert run.check(other)


def test_seed0_run_compares_with_pinned_values(tmp_path):
    w = WORKLOADS["desk-table"]
    run = bench.Run(w, seed=0, out_root=tmp_path)
    pinned = w.pinned_path.read_text()
    value = float(pinned.split("\n")[1].split(",")[1])
    bad = tmp_path / "bad.csv"
    bad.write_text(_corrupt(pinned, 1, 1, repr(value + 1e-6)))
    assert any("pinned" in p for p in run.check(bad))
