"""Report bytes of ``cohomology`` and ``compare`` on the bundled models.

``tests/data/golden_reports.json`` pins, for each command line below, the
exit code and the exact report text, so a change to the library that moves
any byte of these reports fails here (acceptance criterion 8 asks for
byte-identical reports).  Regenerate it only when a report is meant to
change, and say so in the changelog:

    PYTHONPATH=src python tests/test_golden_reports.py > tests/data/golden_reports.json
"""

import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from locco.cli import bundled_model_names, run

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
COMPLEXES = ("local", "cech", "total", "nerve", "simplicial")
# (--coeff, --max-degree); --lambda needs field coefficients
SETTINGS = (("Q", 2), ("Zp:5", 2), ("Z", 1), ("Zp:2", 1))


def command_lines(model: str) -> list:
    """Every pinned command line on one bundled model, by model name."""
    lines = []
    for coeff, degree in SETTINGS:
        tail = ["--coeff", coeff, "--max-degree", str(degree)]
        lines += [["cohomology", model, "--complex", c] + tail for c in COMPLEXES]
        lines.append(["compare", model] + tail + (["--lambda"] if coeff != "Z" else []))
    return lines


def render(argv: list, out: Path) -> tuple:
    """(exit code, report text) of one command line with the model name
    replaced by the bundled model's path."""
    path = str(resources.files("locco.models").joinpath(argv[1] + ".json"))
    code = run(["--output", str(out), argv[0], path] + argv[2:])
    return code, out.read_text(encoding="utf-8")


def _golden() -> dict:
    return {" ".join(e["argv"]): e for e in json.loads(GOLDEN.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("model", bundled_model_names())
def test_reports_match_golden_bytes(model, tmp_path):
    golden = _golden()
    lines = command_lines(model)
    assert all(" ".join(argv) in golden for argv in lines)
    for argv in lines:
        code, text = render(argv, tmp_path / "report.json")
        entry = golden[" ".join(argv)]
        assert (code, text) == (entry["exit"], entry["report"]), argv


def main() -> None:
    import tempfile
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        for model in bundled_model_names():
            for argv in command_lines(model):
                code, text = render(argv, Path(tmp) / "report.json")
                entries.append({"argv": argv, "exit": code, "report": text})
    json.dump(entries, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
