"""Replay the pinned CLI calls of tests/golden/ in process.

tests/golden/regenerate.py writes the files. Text must match exactly, and
numbers within 1e-12, absolute or relative: another BLAS build may move a
last bit, so bytes are not compared. Numbers that numpy's generators draw
depend on the numpy build, so a line of a drawn case (one with a ``sigma``)
compares within 4 of its standard error: its own stderr column where the
file has one, else the case's ``sigma``.
"""
import csv
import json
import re
from pathlib import Path

import pytest

from qparrondo.cli import cli_main

GOLDEN = Path(__file__).parent / "golden"
CASES = {case["name"]: case for case in json.loads((GOLDEN / "cases.json").read_text())}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def assert_matches(actual: str, expected: str, sigma, is_csv=False):
    """``actual`` has ``expected``'s lines, with the same text between the
    numbers, and numbers within 1e-12 or, on a drawn line, within 4 of its
    standard error."""
    got_lines, want_lines = actual.splitlines(), expected.splitlines()
    assert len(got_lines) == len(want_lines)
    header = next(csv.reader(want_lines[:1]), []) if is_csv else []
    column = header.index("stderr") if sigma is not None and "stderr" in header else None
    for index, (got, want) in enumerate(zip(got_lines, want_lines)):
        assert NUMBER.split(got) == NUMBER.split(want), (index, got, want)
        error = sigma or 0.0
        if column is not None and index > 0:
            error = float(next(csv.reader([want]))[column])
        for a, b in zip(map(float, NUMBER.findall(got)), map(float, NUMBER.findall(want))):
            assert abs(a - b) <= max(1e-12 * max(1.0, abs(b)), 4 * error), (index, got, want)


@pytest.mark.parametrize("name", CASES)
def test_cli_call_reproduces_its_pinned_output(name, tmp_path, capsys):
    case = CASES[name]
    out = tmp_path / case["out"]
    assert cli_main([*case["argv"], "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "{out}")
    assert_matches(stdout, case["stdout"], case["sigma"])
    expected = (GOLDEN / case["out"]).read_text()
    assert_matches(out.read_text(), expected, case["sigma"], case["out"].endswith(".csv"))


def test_comparison_rejects_a_moved_number_or_changed_text():
    # a drawn row within and beyond 4 of its own standard error, a
    # deterministic row whose gain moved by 1e-10, and a changed verdict
    header = "rho4,scheme,gain,stderr,verdict,paradox\n"
    row = '0.4,"periodic:2,2",0.25,0.01,winning,0\n'
    assert_matches(header + row, header + row, 0.0, is_csv=True)
    assert_matches(header + row.replace("0.25", "0.289"), header + row, 0.0, is_csv=True)
    with pytest.raises(AssertionError):
        assert_matches(header + row.replace("0.25", "0.291"), header + row, 0.0, True)
    with pytest.raises(AssertionError):
        assert_matches(header + row.replace("0.25", "0.2500000001"), header + row, None, True)
    with pytest.raises(AssertionError):
        assert_matches(header + row.replace("winning", "losing"), header + row, 0.0, True)


def test_pinned_files_stay_small():
    assert sum(path.stat().st_size for path in GOLDEN.iterdir() if path.is_file()) < 300_000
