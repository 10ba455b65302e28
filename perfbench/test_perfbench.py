"""Tests of the benchmark itself: seeded generation, output checking,
tracing and the contract of BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402


@pytest.fixture(scope="module")
def hopla():
    return run.import_hopla()


def _inputs(h, workload, seed, tmp_path, name):
    workdir = tmp_path / name
    workdir.mkdir()
    return Inputs(workload, seed, workdir, h)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_byte_deterministic_per_seed(hopla, workload, tmp_path):
    first = _inputs(hopla, workload, 5, tmp_path, "a")
    again = _inputs(hopla, workload, 5, tmp_path, "b")
    other = _inputs(hopla, workload, 6, tmp_path, "c")
    assert first.documents == again.documents
    for name, text in first.documents.items():
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert text.encode("utf-8") == (tmp_path / "a" / name).read_bytes()
    assert [j.name for j in first.jobs] == [j.name for j in again.jobs]
    assert [j.name for j in first.jobs] == [j.name for j in other.jobs]
    assert first.documents != other.documents
    assert len(first.jobs) >= 100, "ten jobs must lie beyond p90"


def _run_job(h, inputs, name):
    job = next(j for j in inputs.jobs if j.name == name)
    _, code, stdout, result = run.run_job(h, inputs, job)
    return job, checks.make_record(h, job, code, stdout, result)


def test_broken_fixture_fails_with_its_witness_and_a_flipped_verdict_is_caught(
        hopla, tmp_path):
    inputs = _inputs(hopla, "residual", run.DEFAULT_SEED, tmp_path, "w")
    job, record = _run_job(hopla, inputs, "check-assoc-dual-numbers-broken")
    assert record["exit"] == 1
    assert checks.verify(hopla, job, record) == []
    assert run.load_expected("residual")[job.name] == record

    flipped = copy.deepcopy(record)
    for check in flipped["checks"]:
        check[1] = True
    flipped["exit"] = 0
    assert checks.verify(hopla, job, flipped)
    assert run.load_expected("residual")[job.name] != flipped


def test_a_corrupted_witness_value_is_caught(hopla, tmp_path):
    inputs = _inputs(hopla, "residual", 9, tmp_path, "w")
    name = "check-lie-random0.0-unhat-d3-m4"
    job, record = _run_job(hopla, inputs, name)
    assert record["exit"] == 1 and checks.verify(hopla, job, record) == []
    bad = copy.deepcopy(record)
    witness = next(w for _, ok, w in bad["checks"] if not ok)
    witness["value"][0]["coeff"] = "12345"
    assert any("re-evaluates" in p for p in checks.verify(hopla, job, bad))


def test_a_failing_coderive_witness_re_evaluates(hopla, tmp_path):
    inputs = _inputs(hopla, "coderive", 9, tmp_path, "w")
    job, record = _run_job(hopla, inputs, "coderive-perm-random.0-hat-d3-a2-c4")
    assert record["exit"] == 1
    assert checks.verify(hopla, job, record) == []


def test_a_corrupted_derived_document_is_caught(hopla, tmp_path):
    inputs = _inputs(hopla, "calculus", run.DEFAULT_SEED, tmp_path, "w")
    job, record = _run_job(hopla, inputs, "derive-commutator-gamma-chain0-d4")
    assert checks.verify(hopla, job, record) == []
    assert run.load_expected("calculus")[job.name] == record
    text = Path(job.output).read_text(encoding="utf-8")
    corrupted_text = text.replace('"coeff": "', '"coeff": "-', 1)
    assert corrupted_text != text
    Path(job.output).write_text(corrupted_text, encoding="utf-8")
    corrupted = checks.make_record(hopla, job, 0, "", None)
    assert run.load_expected("calculus")[job.name] != corrupted


def test_tracer_wraps_every_binding_and_restores_them(hopla, tmp_path):
    inputs = _inputs(hopla, "calculus", 2, tmp_path, "w")
    original = hopla.permutations.precompose_symmetrized
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in ("permutations", "equations", "functors", "drivers", "verify"):
            assert getattr(hopla, module).precompose_symmetrized is not original
        job = next(j for j in inputs.jobs if j.name.startswith("derive-commutator-alpha"))
        tracer.request = 0
        run.run_job(hopla, inputs, job)
        tracer.end_request()
    finally:
        tracer.uninstall()
    for module in ("permutations", "equations", "functors", "drivers", "verify"):
        assert getattr(hopla, module).precompose_symmetrized is original
    stats = tracer.take_round()
    assert stats["permutations.precompose_symmetrized.calls"] >= 1
    assert stats["permutations.koszul_sign.calls"] > 0
    assert stats["cli.main.calls"] == 1
    assert stats["cli.main.self_s"] <= stats["cli.main.total_s"]
    ids = {span[0] for span in tracer.spans}
    assert len(ids) == len(tracer.spans)
    assert all(span[1] is None or span[1] in ids for span in tracer.spans)


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.METRICS


def test_a_run_checks_its_outputs_and_prints_the_result_last(capsys):
    assert run.main(["--workload", "calculus", "--seed", str(run.DEFAULT_SEED),
                     "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_without_the_sources_the_run_stops_with_an_error(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "residual",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""
