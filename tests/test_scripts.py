"""The scripts run end to end and print the tables pinned below, so a
change to the engine behind a column cannot change what they report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

WORKED_EXAMPLES = """\
graph        n  k  hitting  egg-cut  order  gonality  sep
---------------------------------------------------------
herschel    11  3        5        5      5         -    -
cube         8  2        4        4      4         -    -
four-cube   16  3        8        8      8         -    -
crown-4      8  2        4        4      4         -    -
K_{3,3}      6  2        3        4      3         -    -
K_{4,4}      8  2        4        6      4         -    -
C_8          8  2        4        2      2         -    -
"""

WORKED_EXAMPLES_FULL = """\
graph        n  k  hitting  egg-cut  order  gonality  sep
---------------------------------------------------------
herschel    11  3        5        5      5         5    5
cube         8  2        4        4      4         4    4
four-cube   16  3        8        8      8         8    8
crown-4      8  2        4        4      4         4    4
K_{3,3}      6  2        3        4      3         3    3
K_{4,4}      8  2        4        6      4         4    4
C_8          8  2        4        2      2         2    2
"""

RANDOM_SURVEY = """\
trials: 60 (n <= 7, seed 7)
gap 0:   46 (76.7%)
gap 1:   12 (20.0%)
gap 2:    2 (3.3%)
gap 1 example: [(0, 1), (0, 2), (0, 2), (0, 3)]
gap 1 example: [(0, 1), (0, 1), (0, 2), (0, 3), (0, 4), (0, 4), (3, 4), (4, 5)]
gap 1 example: [(0, 1), (0, 2), (0, 3), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)]
gap 1 example: [(0, 1), (0, 3), (1, 2), (1, 4), (2, 4), (3, 5)]
gap 1 example: [(0, 1), (0, 1), (0, 2), (2, 3), (2, 3)]
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["worked_examples.py", "--skip-gonality"], WORKED_EXAMPLES),
        (["random_survey.py", "--trials", "60"], RANDOM_SURVEY),
    ],
)
def test_script_output_is_pinned(argv, expected):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected


def test_worked_examples_full_table_is_pinned():
    # the gonality and sep columns; sep reads girth through the
    # tree-separator bound
    test_script_output_is_pinned(["worked_examples.py"], WORKED_EXAMPLES_FULL)
