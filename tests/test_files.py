import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcmreduce.files import read_csv, write_csv


def test_failed_write_leaves_previous_file_and_no_temp(tmp_path):
    path = tmp_path / "ties.csv"
    write_csv(path, ["i", "j"], [[0, 1]])
    before = path.read_bytes()

    def rows():
        yield [1, 2]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(path, ["i", "j"], rows())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ties.csv"]


@settings(deadline=None)
@given(n=st.integers(), x=st.floats(allow_nan=False, allow_infinity=False))
def test_the_number_text_rule_reads_back_what_the_writers_write(tmp_path_factory, n, x):
    """str of an int and repr of a finite float, as every writer emits
    numbers, pass the rule and read back equal."""
    path = tmp_path_factory.mktemp("rule") / "numbers.csv"
    write_csv(path, ["n", "x"], [[str(n), repr(x)]])
    assert list(read_csv(path, ["n", "x"], "numbers", (int, float))) == [[n, x]]
