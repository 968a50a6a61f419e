"""The benchmark's own tests, on every workload shrunk to 60-120 jobs and 2-pass blocks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import run

run.import_program()

import cells  # noqa: E402  (needs the program on the path)
from spans import LAYERS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {"sched-smith": 60, "sched-max": 120, "wait-gibbons": 60, "service-poll": 120}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    small = {name: replace(spec, n_jobs=TINY[name], block=2) for name, spec in cells.SPECS.items()}
    monkeypatch.setattr(cells, "SPECS", small)


def tiny_pins(name: str) -> dict:
    """Seed-0 pins for the shrunk workload, as ``--repin`` would write them."""
    return {name: run.seed0_outputs(name)}


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(name, capsys):
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = _units("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for key, m in result["metrics"].items():
        assert m["value"] > 0, key
        assert any(line.split()[:1] == [key] and line.split()[-1] == units[key] for line in out)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(name):
    pins = tiny_pins(name)
    metrics, checker, info = run.run_workload(name, 0, 0.0, True, pins)
    assert checker.failed == 0, checker.problems
    assert info["traced_passes"] >= 2
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    shares = sum(metrics[f"share.{layer}"]["value"] for layer in (*LAYERS, "residual"))
    assert shares == pytest.approx(1.0, rel=1e-9)
    loads_service = metrics["service.ingest_s"]["value"] > 0
    assert loads_service == (name == "service-poll")
    loads_waitpred = metrics["waitpred.predict_wait_calls"]["value"] + metrics[
        "waitpred.fast_walk_calls"
    ]["value"] > 0
    assert loads_waitpred == (name in ("wait-gibbons", "service-poll"))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_pin_makes_failed_fraction_nonzero(name):
    pins = tiny_pins(name)
    metrics, checker, _ = run.run_workload(name, 0, 0.0, False, pins)
    assert checker.failed == 0, checker.problems
    cell, values = next(iter(pins[name].items()))
    key = next(iter(values))
    values[key] = values[key] + 1
    _, checker, _ = run.run_workload(name, 0, 0.0, False, pins)
    assert checker.failed > 0
    assert checker.failed / checker.attempted > 0
    assert any(cell in p for p in checker.problems)


def test_seed_changes_inputs_and_repeats_them():
    a, b, c = (cells.build("sched-max", s) for s in (1, 1, 2))
    for wl in (a, b, c):
        wl.setup()
    assert a.input_digest() == b.input_digest() != c.input_digest()


def test_missing_program_exits_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exc:
        run.import_program()
    assert exc.value.code != 0
    assert capsys.readouterr().out == ""
