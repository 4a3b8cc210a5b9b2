"""Command-line frontend: byte-exact golden output, exit codes, error reporting."""

from pathlib import Path

import pytest
from click.testing import CliRunner

from cskfam.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _invoke(args):
    return CliRunner().invoke(main, [str(a) for a in args])


# Golden files were written by the CLI before the measure protocol existed;
# every later version must reproduce them byte for byte.
GOLDEN_CASES = {
    "csk_free_poisson.csv": ["csk", "--spec", GOLDEN / "free_poisson.json",
                             "--at", "0.25:2.5:0.25"],
    "csk_two_atom.csv": ["csk", "--spec", GOLDEN / "two_atom.json",
                         "--at", "1,1.25,1.5,2,2.4,2.6"],
    "limit_free_poisson.csv": ["limit", "--spec", GOLDEN / "free_poisson.json",
                               "--kind", "boxplus", "--n-schedule", "1,2,4"],
    "convolve_boxtimes.csv": ["convolve", "--spec", GOLDEN / "free_poisson.json",
                              "--op", "boxtimes", "--power", "2", "--order", "8"],
    "transform_g.csv": ["transform", "--spec", GOLDEN / "semicircle.json",
                        "--which", "G", "--grid=-2,0,1,2.5,3,4.5"],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_CASES))
def test_golden_output(golden, tmp_path):
    out = tmp_path / golden
    result = _invoke(GOLDEN_CASES[golden] + ["--out", out])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_golden_output_on_stdout_matches_file():
    result = _invoke(GOLDEN_CASES["transform_g.csv"])
    assert result.exit_code == 0
    assert result.stdout_bytes == (GOLDEN / "transform_g.csv").read_bytes()


@pytest.mark.parametrize(
    "doc",
    [
        '{"type":"named","name":"semicircle","params":{"center":"abc"}}',
        '{"type":"named","name":"semicircle","params":{"center":[1]}}',
        '{"type":"atomic","atoms":[NaN,1],"weights":[0.5,0.5]}',
        '{"type":"atomic","atoms":[1,2],"weights":[0.6,0.6]}',
        '{"type":"moments","values":[1,2',
    ],
)
def test_malformed_spec_exits_1_without_traceback(doc, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(doc, encoding="utf-8")
    result = _invoke(["csk", "--spec", spec, "--at", "1"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["convolve", "--spec", GOLDEN / "free_poisson.json", "--op", "boxplus"],
        ["csk", "--spec", GOLDEN / "free_poisson.json", "--at", "1:2"],
        ["limit", "--spec", GOLDEN / "free_poisson.json", "--kind", "boxplus",
         "--n-schedule", "one"],
        ["transform", "--spec", GOLDEN / "missing.json", "--which", "G", "--grid", "3"],
        ["verify", "--suite", "nonexistent"],
    ],
)
def test_usage_error_exits_2(args):
    assert _invoke(args).exit_code == 2


def test_verify_all_passes():
    result = _invoke(["verify", "--suite", "all"])
    assert result.exit_code == 0, result.output
    assert "FAIL" not in result.output
