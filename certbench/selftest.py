"""Tests of the benchmark itself: oracles, tamper detection, tracer, smoke pass.

    python3 -m pytest certbench/selftest.py

The file is named so that the library's own test run does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import LAYER_COUNTS, LAYERS, Tracer  # noqa: E402

import locco.cli as cli  # noqa: E402

# the six-vertex real projective plane, written out by hand
RP2_TRIANGLES = ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                 (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6))


def _closure(top) -> list:
    faces = {f for s in top for size in range(1, len(s) + 1)
             for f in combinations(sorted(s), size)}
    return sorted(faces, key=lambda f: (len(f), f))


# ---------------------------------------------------------------------------
# oracles


def test_nerve_of_three_pairwise_meeting_sets_is_a_circle():
    cover = [{0, 1}, {1, 2}, {2, 0}]
    assert oracle.nerve(cover) == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    for coeff in ("Q", "Zp:2", "Zp:5"):
        assert oracle.nerve_profile(cover, coeff, 2) == [(1, ()), (1, ()), (0, ())]


def test_nerve_of_four_sets_meeting_three_at_a_time_is_a_2_sphere():
    # one point per 3-subset of {0, 1, 2, 3}; set i holds the points naming i
    triples = list(combinations(range(4), 3))
    cover = [{k for k, t in enumerate(triples) if i in t} for i in range(4)]
    assert len(oracle.nerve(cover)) == 4 + 6 + 4
    assert oracle.nerve_profile(cover, "Q", 3) == [(1, ()), (0, ()), (1, ()), (0, ())]


def test_projective_plane_over_two_fields_and_by_universal_coefficients():
    rp2 = _closure(RP2_TRIANGLES)
    assert len(rp2) == 6 + 15 + 10
    assert oracle.simplicial_field_profile(rp2, "Zp:2", 2) == [(1, ()), (1, ()), (1, ())]
    assert oracle.simplicial_field_profile(rp2, "Q", 2) == [(1, ()), (0, ()), (0, ())]
    assert oracle.expected_profile(oracle.RP2, "Zp:2", 2) == [(1, ()), (1, ()), (1, ())]
    assert oracle.expected_profile(oracle.RP2, "Zp:5", 2) == [(1, ()), (0, ()), (0, ())]
    assert oracle.expected_profile(oracle.RP2, "Z", 2) == [(1, ()), (0, ()), (0, (2,))]


def test_random_covers_cover_their_points_with_the_drawn_sizes():
    import random
    rng = random.Random(3)
    for n, sizes in workloads.RANDOM_SHAPES:
        doc = workloads.random_cover_doc(rng, n, sizes, "r")
        members = [set(c["members"]) for c in doc["cover"]]
        assert set().union(*members) == set(range(n))
        assert tuple(len(m) for m in members) == sizes


# ---------------------------------------------------------------------------
# tamper detection


def _jobs(workload, tmp_path, seed=1):
    return workloads.prepare(workload, seed, tmp_path / workload)


def _job(workload, name, tmp_path):
    return next(j for j in _jobs(workload, tmp_path) if j.name == name)


def _tampering_cli(edit):
    """A stand-in for locco.cli whose reports are edited before they are read."""
    def fake_run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        doc = json.loads(buf.getvalue())
        edit(argv, doc)
        sys.stdout.write(json.dumps(doc))
        return code
    return SimpleNamespace(run=fake_run)


def _drop_torsion(argv, doc):
    profile = doc["result"].get("profile")
    if profile and "Z" in argv:
        profile["2"]["torsion"] = []


def _bump_rank(argv, doc):
    comp = doc["result"].get("comparison")
    if comp:
        first = comp["profiles"]["total"][1]
        comp["profiles"]["total"][1] = ([first[0] + 1, first[1]]
                                        if isinstance(first, list) else first + 1)


@pytest.mark.parametrize("edit", [_drop_torsion, _bump_rank])
def test_tampered_report_fails_the_job(edit, tmp_path):
    job = _job("integer_certify", "projective_plane-Z", tmp_path)
    wall, cpu, problems, crashed, nbytes = run.run_job(cli, job)
    assert not problems and not crashed
    args = SimpleNamespace(seconds=0.0)
    result = run.measure(_tampering_cli(edit), [job], args, None)
    walls, cpus, attempted, failed, wrong, passes = result["stats"]
    assert (attempted, failed, wrong, passes) == (1, 1, True, 1)


def _failing_check_cli(argv):
    """A stand-in for locco.cli whose checks fail: passed false, exit 1."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.run(argv)
    doc = json.loads(buf.getvalue())
    doc["passed"] = False
    sys.stdout.write(json.dumps(doc))
    return 1


def test_exit_one_with_a_failed_check_makes_the_run_wrong(tmp_path):
    job = _job("gate_mix", "gate-hexagon", tmp_path)
    wall, cpu, problems, crashed, nbytes = run.run_job(
        SimpleNamespace(run=_failing_check_cli), job)
    assert problems and not crashed
    result = run.measure(SimpleNamespace(run=_failing_check_cli), [job],
                         SimpleNamespace(seconds=0.0), None)
    walls, cpus, attempted, failed, wrong, passes = result["stats"]
    assert (attempted, failed, wrong, passes) == (1, 1, True, 1)


def test_wrong_answer_counts_even_when_another_call_of_the_job_crashes(tmp_path):
    job = _job("integer_certify", "projective_plane-Z", tmp_path)
    tampered = _tampering_cli(_bump_rank)

    def fake_run(argv):     # the compare call is tampered, the cohomology call exits 3
        return tampered.run(argv) if "compare" in argv else 3
    result = run.measure(SimpleNamespace(run=fake_run), [job],
                         SimpleNamespace(seconds=0.0), None)
    walls, cpus, attempted, failed, wrong, passes = result["stats"]
    assert (attempted, failed, wrong, passes) == (1, 1, True, 1)


def test_circle_rank_change_is_caught_on_a_field_profile(tmp_path):
    job = _job("field_ladder", "local-Q-cyc12_2", tmp_path)
    report = {"result": {"profile": {"0": {"rank": 1, "torsion": []},
                                     "1": {"rank": 2, "torsion": []},
                                     "2": {"rank": 0, "torsion": []}}}}
    assert job.calls[0].check(report)
    report["result"]["profile"]["1"]["rank"] = 1
    assert job.calls[0].check(report) == []


def test_nonzero_exit_fails_the_job(tmp_path):
    job = _job("integer_certify", "hexagon-Z-total", tmp_path)
    stub = SimpleNamespace(run=lambda argv: 3)
    wall, cpu, problems, crashed, nbytes = run.run_job(stub, job)
    assert crashed and not problems


# ---------------------------------------------------------------------------
# tracer


def _traced(job):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_job(0)
        _, _, problems, crashed, nbytes = run.run_job(cli, job)
        tracer.counts["cli.report_bytes"] += nbytes
    finally:
        tracer.uninstall()
    assert not problems and not crashed
    return tracer


def test_trace_of_a_lambda_job_names_every_stage_and_counts_repeat(tmp_path):
    job = _job("field_ladder", "lambda-Zp:5-cyc12_2", tmp_path)
    first, second = _traced(job), _traced(job)
    names = {s[0] for s in first.spans}
    for name in ("cli.run", "compare.verify_local_vs_cech", "compare.verify_lambda_iso",
                 "compare.is_acyclic", "model.load_model", "model.diagonal_neighborhood",
                 "homology.basis", "homology.assemble_matrix", "homology.matrix_rank",
                 "homology.kernel_basis", "homology.rank_in_quotient"):
        assert name in names, name
    assert dict(first.counts) == dict(second.counts)
    metrics = first.layer_metrics(1)
    assert set(metrics) == set(LAYERS) | set(LAYER_COUNTS)
    assert metrics["homology.kernel_s"][0] > 0 and metrics["homology.rank_calls"][0] > 0
    # wrappers are gone after uninstall
    import locco.compare
    assert not hasattr(locco.compare.assemble_matrix, "__wrapped__")


def test_self_times_partition_the_traced_job(tmp_path):
    job = _job("integer_certify", "hexagon-Z-total", tmp_path)
    tracer = _traced(job)
    (top,) = [s for s in tracer.spans if s[3] == -1]
    total_self = sum(tracer.self_times().values())
    assert total_self == pytest.approx(top[2] - top[1], rel=1e-9)
    metrics = tracer.layer_metrics(1)
    assert metrics["homology.snf_cells"][0] > 0 and metrics["homology.cert_s"][0] > 0


# ---------------------------------------------------------------------------
# smoke pass


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_at_the_smallest_rung_of_each_job_kind(workload, tmp_path):
    jobs = _jobs(workload, tmp_path)
    smallest = {}
    for job in jobs:
        if job.kind not in smallest or job.rung < smallest[job.kind].rung:
            smallest[job.kind] = job
    for job in smallest.values():
        wall, cpu, problems, crashed, nbytes = run.run_job(cli, job)
        assert not problems and not crashed, (job.name, problems, crashed)
