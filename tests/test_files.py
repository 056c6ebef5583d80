import os

import pytest

from fcmreduce.files import write_csv


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
