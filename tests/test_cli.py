import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import locco
from locco import cli
from locco.cli import (bundled_model_names, build_parser, load_bundled_model,
                       run)


def model_path(name):
    import locco.models
    from importlib import resources
    return str(resources.files("locco.models").joinpath(name + ".json"))


def run_to_file(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = run(["--output", str(out)] + argv)
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc, out.read_bytes() if out.exists() else b""


def test_examples_catalog(tmp_path):
    code, doc, _ = run_to_file(tmp_path, ["examples"])
    assert code == 0
    names = {entry["name"] for entry in doc["result"]["models"]}
    assert {"interval", "hexagon", "triangle", "projective_plane"} <= names


def test_cohomology_command(tmp_path):
    code, doc, _ = run_to_file(
        tmp_path, ["cohomology", model_path("hexagon"), "--complex", "cech",
                   "--coeff", "Q", "--max-degree", "1"])
    assert code == 0
    prof = doc["result"]["profile"]
    assert prof["0"]["rank"] == 1 and prof["1"]["rank"] == 1


def test_cohomology_integer_torsion(tmp_path):
    code, doc, _ = run_to_file(
        tmp_path, ["cohomology", model_path("projective_plane"),
                   "--complex", "simplicial", "--coeff", "Z", "--max-degree", "2"])
    assert code == 0
    assert doc["result"]["profile"]["2"] == {"rank": 0, "torsion": [2]}


def test_verify_contraction_passes(tmp_path):
    code, doc, _ = run_to_file(
        tmp_path, ["verify-contraction", model_path("interval"),
                   "--family", "first-hit", "--coeff", "Q", "--pq", "1,1"])
    assert code == 0
    assert doc["passed"] is True
    code2, doc2, _ = run_to_file(
        tmp_path, ["verify-contraction", model_path("hexagon"),
                   "--family", "random:5", "--coeff", "Q", "--pq", "0,1"])
    assert code2 == 0 and doc2["passed"] is True


def test_compare_command(tmp_path):
    code, doc, _ = run_to_file(
        tmp_path, ["compare", model_path("hexagon"), "--coeff", "Q",
                   "--max-degree", "1", "--lambda"])
    assert code == 0
    assert doc["result"]["comparison"]["isomorphic"] is True
    assert doc["result"]["restriction"]["induced_ranks"] == [1, 1]


def test_compare_scan(tmp_path):
    code, doc, _ = run_to_file(
        tmp_path, ["compare", "--scan", "m=12,k=1..2", "--coeff", "Q"])
    assert code == 0
    scans = doc["result"]["scan"]
    assert len(scans) == 2
    assert all(rep["extras"]["stabilized"] for rep in scans)


def test_sigma_check_and_eval(tmp_path):
    code, doc, _ = run_to_file(
        tmp_path, ["sigma-check", "--carrier", "Rd:2", "--n", "3",
                   "--samples", "60"])
    assert code == 0 and doc["passed"] is True
    payload = tmp_path / "fill.json"
    payload.write_text(json.dumps({
        "n": 2,
        "vertices": [[1, 0], [0, 1], [0, 0]],
        "weights": [0.25, 0.25, 0.5],
    }))
    code, doc, _ = run_to_file(tmp_path, ["sigma-eval", "--input", str(payload)])
    assert code == 0
    assert doc["result"]["value"] == pytest.approx([0.25, 0.25], abs=1e-12)


def test_pou_check_constructions(tmp_path):
    for construction in ("rescue", "product:q=1", "ball:eps=0.25"):
        code, doc, _ = run_to_file(
            tmp_path, ["pou-check", "--domain", "circle:1500",
                       "--cover", "arcs:3", "--construction", construction])
        assert code == 0, construction
        assert doc["passed"] is True
        assert doc["result"]["report"]["max_sum_deviation"] <= 1e-9


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, doc, _ = run_to_file(tmp_path, ["cohomology", str(bad)])
    assert code == 2
    assert doc["error"]["kind"] == "parse"
    assert "line" in doc["error"]


def test_model_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": [0, 1], "cover": []}))
    code, doc, _ = run_to_file(tmp_path, ["cohomology", str(bad)])
    assert code == 2


def test_budget_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("LOCCO_BUDGET", "5")
    code, doc, _ = run_to_file(
        tmp_path, ["cohomology", model_path("hexagon"), "--max-degree", "2"])
    assert code == 3
    assert doc["error"]["kind"] == "budget"


def test_nerve_budget_exit_code(tmp_path, monkeypatch):
    # z6_arcs has 6 + 12 nerve simplices through dimension 1
    monkeypatch.setenv("LOCCO_BUDGET", "17")
    code, doc, _ = run_to_file(
        tmp_path, ["cohomology", model_path("z6_arcs"), "--complex", "cech"])
    assert code == 3
    assert doc["error"]["kind"] == "budget"
    assert "the nerve of 6 cover sets needs 18" in doc["error"]["message"]


def test_failing_check_exit_code(tmp_path):
    # a family that is not a partition of unity breaks the homotopy identity
    fam = {"level": 0, "unity": False,
           "weights": [{"index": 0, "tuple": [0], "weight": 2}]}
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(fam))
    code, doc, _ = run_to_file(
        tmp_path, ["verify-contraction", model_path("interval"),
                   "--family", f"file:{fam_path}", "--coeff", "Q", "--pq", "1,0"])
    assert code == 1
    assert doc["passed"] is False
    assert "counterexample" in doc["result"]


def test_report_determinism(tmp_path):
    argv = ["compare", model_path("hexagon"), "--coeff", "Q",
            "--max-degree", "1", "--lambda"]
    _, _, blob_a = run_to_file(tmp_path, argv, name="a.json")
    _, _, blob_b = run_to_file(tmp_path, argv, name="b.json")
    assert blob_a == blob_b


def test_parser_covers_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for sub in ("cohomology", "compare", "verify-contraction", "sigma-check",
                "sigma-eval", "pou-check", "examples"):
        assert sub in text


@pytest.mark.parametrize("doc", [
    {"points": [[0], [1]], "cover": [{"members": [0, 1]}]},
    {"points": [[0], [1]], "cover": [{"members": [[0], [1]]}]},
], ids=["points-only", "points-and-members"])
def test_list_point_ids_exit_code(tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_to_file(tmp_path, ["cohomology", str(bad)])
    assert code == 2
    assert out["error"]["kind"] == "ModelError"
    assert "scalar point ids" in out["error"]["message"]


def test_negative_max_degree_exit_code(tmp_path):
    for argv in (["cohomology", model_path("interval")],
                 ["compare", model_path("interval")]):
        code, doc, _ = run_to_file(tmp_path, argv + ["--max-degree", "-1"])
        assert code == 2
        assert "--max-degree" in doc["error"]["message"]
        assert "result" not in doc


def test_module_entry_point():
    env = dict(os.environ)
    src = str(Path(locco.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "locco.cli", "cohomology",
                           model_path("interval"), "--max-degree", "0"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["profile"]["0"]["rank"] == 1


@pytest.mark.parametrize("argv, command", [
    (["cohomology", "MODEL", "--max-degree", "abc"], "cohomology"),
    (["compare", "MODEL", "--coeff"], "compare"),
    (["cohomology", "MODEL", "--complex", "nope"], "cohomology"),
    (["frobnicate"], None),
    ([], None),
], ids=["bad-int", "missing-value", "bad-choice", "bad-command", "no-command"])
def test_usage_errors_are_json(capsys, argv, command):
    argv = [model_path("interval") if a == "MODEL" else a for a in argv]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["command"] == command
    assert doc["error"]["kind"] == "usage"
    assert "error:" in doc["error"]["message"]
    assert "result" not in doc
    assert err.startswith("usage: locco")


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["cohomology", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert "usage: locco" in capsys.readouterr().out


def outcome(argv, capsys):
    """Exit code (or SystemExit code) and the bytes written by one run."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


def test_shared_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    valid = ["cohomology", model_path("interval"), "--max-degree", "1"]
    calls = [valid, ["cohomology", model_path("interval"), "--max-degree", "abc"],
             ["--help"], ["compare", "--help"], valid]
    builds = []

    def counted_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._shared_parser.cache_clear()
    shared = [outcome(argv, capsys) for argv in calls]
    assert len(builds) == 1
    monkeypatch.setattr(cli, "_shared_parser", build_parser)
    fresh = [outcome(argv, capsys) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, ("SystemExit", 0), ("SystemExit", 0), 0]
    assert shared[0] == shared[-1]


@pytest.mark.parametrize("argv, names", [
    (["--samples", "0"], "--samples"),
    (["--samples", "-4"], "--samples"),
    (["--n", "-1"], "--n"),
    (["--n", "0"], "--n"),
    (["--carrier", "path:1"], "path:1"),
    (["--carrier", "Rd:0"], "Rd:0"),
    (["--carrier", "Rd:x"], "Rd:x"),
    (["--carrier", "pathways"], "pathways"),
    (["--tol", "nan"], "--tol"),
    (["--tol", "-0.001"], "--tol"),
], ids=["samples-0", "samples-negative", "n-negative", "n-0", "path-1", "rd-0",
        "rd-not-int", "bad-carrier", "tol-nan", "tol-negative"])
def test_sigma_check_refuses_vacuous_arguments(tmp_path, argv, names):
    code, doc, _ = run_to_file(tmp_path, ["sigma-check"] + argv)
    assert code == 2
    assert "result" not in doc
    assert names in doc["error"]["message"]


@pytest.mark.parametrize("argv, names", [
    (["--tol", "nan"], "--tol"),
    (["--tol", "-0.5"], "--tol"),
    (["--tol", "inf"], "--tol"),
    (["--construction", "ball:eps=nan"], "radius"),
    (["--construction", "ball:eps=inf"], "radius"),
    (["--construction", "ball:eps=0"], "radius"),
], ids=["tol-nan", "tol-negative", "tol-inf", "eps-nan", "eps-inf", "eps-0"])
def test_pou_check_refuses_bad_tolerance_and_radius(tmp_path, argv, names):
    code, doc, blob = run_to_file(tmp_path, ["pou-check", "--domain", "circle:500"] + argv)
    assert code == 2
    assert "result" not in doc and b"NaN" not in blob
    assert names in doc["error"]["message"]


@pytest.mark.parametrize("payload, kind", [
    ({"n": 1, "vertices": [[0, 0], [1]], "weights": [0.5, 0.5]}, "DomainError"),
    ([1], "ValueError"),
    ({"n": [1], "vertices": [], "weights": []}, "ValueError"),
    ({"n": 1, "vertices": [1, 2], "weights": [0.5, 0.5]}, "ValueError"),
    ({"n": 1, "vertices": [[0], [1]], "weights": [float("nan"), 0.5]}, "DomainError"),
], ids=["ragged", "not-an-object", "n-not-int", "scalar-vertices", "nan-weight"])
def test_sigma_eval_typed_errors(tmp_path, payload, kind):
    path = tmp_path / "fill.json"
    path.write_text(json.dumps(payload))
    code, doc, _ = run_to_file(tmp_path, ["sigma-eval", "--input", str(path)])
    assert code == 2
    assert doc["error"]["kind"] == kind
    assert "result" not in doc


GOOD_WEIGHT = {"index": 0, "tuple": [0], "weight": 1}


@pytest.mark.parametrize("doc", [
    [GOOD_WEIGHT],
    {"level": None, "weights": [GOOD_WEIGHT]},
    {"level": 0, "unity": "false", "weights": [GOOD_WEIGHT]},
    {"level": 0, "weights": 5},
    {"level": 0, "weights": [[0]]},
    {"level": 0, "weights": [{"index": 0, "tuple": [0]}]},
    {"level": 0, "weights": [{"index": "0", "tuple": [0], "weight": 1}]},
    {"level": 0, "weights": [{"index": 0, "tuple": 5, "weight": 1}]},
    {"level": 0, "weights": [{"index": 0, "tuple": [[0]], "weight": 1}]},
    {"level": 0, "weights": [{"index": 0, "tuple": [0], "weight": None}]},
    {"level": 0, "weights": [{"index": 0, "tuple": [0], "weight": [1]}]},
    {"level": 0, "weights": [{"index": 0, "tuple": [0], "weight": True}]},
    {"level": 0, "weights": [{"index": 0, "tuple": [0], "weight": float("nan")}]},
    {"level": 0, "weights": [{"index": 0, "tuple": [0], "weight": "one"}]},
    {"level": 0, "weights": [{"index": 0, "tuple": [0], "weight": "1/0"}]},
], ids=["not-an-object", "level-null", "unity-str", "weights-int", "entry-list", "weight-missing",
        "index-str", "tuple-int", "tuple-of-lists", "weight-null", "weight-list",
        "weight-bool", "weight-nan", "weight-word", "weight-zero-denominator"])
def test_malformed_family_file_is_a_domain_error(tmp_path, doc):
    fam_path = tmp_path / "fam.json"
    fam_path.write_text(json.dumps(doc))
    code, out, _ = run_to_file(
        tmp_path, ["verify-contraction", model_path("interval"),
                   "--family", f"file:{fam_path}", "--pq", "1,0"])
    assert code == 2
    assert out["error"]["kind"] == "DomainError"
    assert "result" not in out
