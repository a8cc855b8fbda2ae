"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as W  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from qwtrap import figures, spectral, verification, walk  # noqa: E402

BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def fig1():
    p = figures.preset(1)
    return p.field(), spectral.analyze(p.field()), p.report()


def inputs_bytes(workload, cycles: int) -> bytes:
    """Canonical bytes of the first ``cycles`` cycles' inputs."""
    ops = [[(op.kind, op.inputs) for op in workload.cycle(k)] for k in range(cycles)]
    return json.dumps(ops, sort_keys=True).encode()


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    cls = W.WORKLOADS[name]
    first = inputs_bytes(cls(7, str(tmp_path)), 3)
    assert first == inputs_bytes(cls(7, str(tmp_path)), 3)
    other = inputs_bytes(cls(8, str(tmp_path)), 3)
    assert (other != first) == cls.seed_affects_inputs


def test_cycles_hold_the_same_mix_on_every_seed(tmp_path):
    kinds = [[op.kind for op in W.Spectrum(seed, str(tmp_path)).cycle(k)] for seed in (1, 2) for k in (0, 5)]
    assert all(k == kinds[0] for k in kinds)


def test_family_draws_satisfy_their_constraints():
    rng = W.cycle_rng("test", 0, 0)
    for fam in range(1, 6):
        for lo, hi in ((0.2, 0.9), (0.9, 0.99)):
            args = W.draw_family(rng, fam, lo, hi)
            rep = W.models.MODEL_FUNCTIONS[fam](*args, (1.0, 0.0))
            assert rep.field == W.family_field(fam, args)


def test_inner_product_matches_a_window_sum(fig1):
    _, report, _ = fig1
    vecs = [p.vector() for p in report.eigenpairs]
    half = max(v.tail_halfwidth() for v in vecs)
    for u in vecs:
        for v in vecs:
            window = complex(np.sum(u.values(-half, half).conj() * v.values(-half, half)))
            assert abs(W.inner(u, v) - window) < 1e-12
    assert abs(W.inner(vecs[0], vecs[0]) - 1.0) < 1e-12


def test_family_check_catches_corrupted_results(fig1):
    _, report, ref = fig1
    assert W.check_family(report, ref) is None
    pairs = report.eigenpairs
    dropped = dataclasses.replace(report, eigenpairs=pairs[1:])
    assert "phases" in W.check_family(dropped, ref)
    moved = dataclasses.replace(pairs[0], lam=pairs[0].lam + 1e-6)
    assert "gap" in W.check_family(dataclasses.replace(report, eigenpairs=(moved,) + pairs[1:]), ref)
    flipped = dataclasses.replace(report, strongly_trapped=not report.strongly_trapped)
    assert "verdict" in W.check_family(flipped, ref)
    assert "raised" in W.check_family(report, W.models.ConstraintError("x"))


def test_core_check_catches_corrupted_results(fig1):
    field, report, _ = fig1
    assert W.check_core(field, report) is None
    pairs = report.eigenpairs

    def with_first(pair):
        return dataclasses.replace(report, eigenpairs=(pair,) + pairs[1:])

    assert "residual" in W.check_core(field, with_first(dataclasses.replace(pairs[0], lam=pairs[0].lam + 1e-4)))
    assert "<v0, v1>" in W.check_core(field, with_first(pairs[1]))
    inflated = dataclasses.replace(pairs[0], norm_factor=10.0 * pairs[0].norm_factor)
    assert "summed overlap" in W.check_core(field, with_first(inflated))


def test_empty_check():
    field = walk.uniform_field(W.draw_coin(W.cycle_rng("test", 0, 1), 0.3, 0.9))
    report = spectral.analyze(field)
    assert W.check_empty(report) is None
    assert W.check_empty(dataclasses.replace(report, strongly_trapped=True)) is not None


def test_cesaro_checks_catch_corrupted_results(fig1):
    field, report, ref = fig1
    psi = figures.preset(1).psi
    start = walk.WalkState.point(*psi)
    state = walk.evolve(start, field, 50)
    assert W.check_mass(state.norm_sq()) is None
    assert W.check_mass(1.01 * state.norm_sq()) is not None

    horizon, window = W.LIMIT_CHECK_HORIZON, (-W.LIMIT_WINDOW, W.LIMIT_WINDOW)
    exact = ref.limit_window(*window)
    avg = walk.time_averaged(start, field, horizon)
    half = lambda: walk.time_averaged(start, field, horizon // 2)  # noqa: E731
    assert W.check_average(avg, horizon, lambda: exact, half) is None
    shifted = walk.Distribution(avg.lo + 1, avg.masses)
    assert "gap" in W.check_average(shifted, horizon, lambda: exact, half)
    missing = spectral.limit_distribution(report.eigenpairs[1:], start, window=window)
    assert "gap" in W.check_average(avg, horizon, lambda: missing, half)
    assert "mass" in W.check_average(walk.Distribution(avg.lo, 1.01 * avg.masses), 250, lambda: exact, half)


def test_average_check_allows_a_slowly_decaying_resonance():
    # A random single-defect field with no eigenphase: the time average at
    # x = 1 sits 35/T above its limit of 0, over the threshold at T = 2000.
    def coin(ar, ai, br, bi, delta):
        return W.algebra.make_coin(complex(ar, ai), complex(br, bi), delta)

    field = walk.defect_field(
        coin(-0.2809831641991916, -0.21492957768665044, -0.4955149575863308, 0.7932960764306508, 1.7306882837152462),
        coin(0.4276993504195819, 0.128679033678808, -0.6296684990608645, -0.6356355506362068, 2.230367299364128),
        coin(-0.22731488442628484, 0.4764324515508327, 0.8467286142474169, -0.06626247989758166, 6.106161873012388),
    )
    start = walk.WalkState.point(complex(-0.46332203486022505, 0.8752943976124452),
                                 complex(0.118124598738641, -0.07238085861664006))
    assert len(spectral.find_eigenphases(field)) == 0
    horizon = W.LIMIT_CHECK_HORIZON
    avg = walk.time_averaged(start, field, horizon)
    assert avg.mass_at(1) > W.LIMIT_VS_SIM_THRESHOLD
    zero = walk.Distribution(-W.LIMIT_WINDOW, np.zeros(2 * W.LIMIT_WINDOW + 1))
    half = lambda: walk.time_averaged(start, field, horizon // 2)  # noqa: E731
    assert W.check_average(avg, horizon, lambda: zero, half) is None


def test_report_and_cli_checks():
    ok = verification.CheckReport("phase_match", "fig1", 0.0, 1e-8)
    bad = verification.CheckReport("phase_match", "fig2", math.inf, 1e-8)
    assert W.check_reports([ok]) is None
    assert "1 of 2" in W.check_reports([ok, bad])

    ref = lambda: (0, '{"a": [1.5]}')  # noqa: E731
    assert W.check_cli(W.CliResult(0, '{"a": [1.5]}', ""), ref) is None
    assert "differs" in W.check_cli(W.CliResult(0, '{"a": [1.25]}', ""), ref)
    assert "exit code" in W.check_cli(W.CliResult(1, "", "error: x"), ref)


def test_tracer_patches_every_binding_and_restores_them():
    original = spectral.find_eigenphases
    tracer = Tracer()
    tracer.install()
    try:
        assert verification.find_eigenphases is spectral.find_eigenphases is not original
        field = figures.preset(2).field()

        def op():
            spectral.find_eigenphases(field)
            verification.find_eigenphases(field)
            warnings.warn("inside a spectral span", RuntimeWarning)

        tracer.call("op.test", tracer.wrap("spectral.fake", op), op=True)
        with tracer.paused():
            spectral.find_eigenphases(field)
    finally:
        tracer.uninstall()
    assert verification.find_eigenphases is spectral.find_eigenphases is original
    m = layer_metrics(tracer)
    assert m["spectral.find_eigenphases.calls"] == 2
    assert m["spectral.calls_per_field"] == 2.0
    assert m["spectral.runtime_warnings"] == 1


def test_benchmark_json_names_every_reported_metric():
    import run

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in doc["end_to_end"]} == set(run.END_TO_END)
    added_by_runner = {"cli.interpreter_s", "cli.import_s", "trace_overhead_frac", "trace.ops"}
    assert {m["name"] for m in doc["per_layer"]} == set(layer_metrics(Tracer())) | added_by_runner
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectrum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
