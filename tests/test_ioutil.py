"""``ioutil.atomic_write_text`` leaves the file a plain write would."""

import os

import pytest

from fairdrop.ioutil import atomic_write_text


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_file_has_the_mode_a_plain_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "atomic.txt", "x\n")
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("x\n")
    finally:
        os.umask(old)
    modes = [(tmp_path / name).stat().st_mode & 0o777 for name in ("atomic.txt", "plain.txt")]
    assert modes == [0o666 & ~umask] * 2
    assert (tmp_path / "atomic.txt").read_text() == "x\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic.txt", "plain.txt"]
