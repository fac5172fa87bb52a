"""The identity grid: every CLI row's bytes against its recorded digest."""

import pytest

import identity_grid as grid

# the sections that test_cli.py and test_policies.py check case by case:
# three add checks a digest cannot make, and the rest keep the test ids of
# the golden tables they replaced, each row checked once
CHECKED_ELSEWHERE = {
    "adversary", "exhaust", "formulas", "sweep", "longrun", "longrun-seq", "seq-file",
    "batch", "traces",
}


@pytest.mark.parametrize(
    "row_id", [row_id for row_id in grid.ROWS if row_id.partition("[")[0] not in CHECKED_ELSEWHERE]
)
def test_row(row_id):
    grid.check(row_id)


def test_recorded_rows_are_the_grid_rows():
    # a row added, renamed or dropped without recording the grid again fails
    built = [row.id for section in grid.SECTIONS for row in section()]
    recorded = [line.rsplit(" ", 1)[0] for line in grid.RECORD.read_text().splitlines()]
    assert len(built) == len(set(built)) and len(recorded) == len(set(recorded))
    assert set(recorded) == set(built)
