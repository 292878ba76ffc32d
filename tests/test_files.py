import os

from pacloud.files import rewrite_text


def test_rewrite_creates_a_missing_file(tmp_path):
    path = tmp_path / "doc.json"
    rewrite_text(path, "{}\n")
    assert path.read_text(encoding="utf-8") == "{}\n"


def test_rewrite_shorter_and_longer_content(tmp_path):
    path = tmp_path / "doc.json"
    rewrite_text(path, "x" * 100)
    rewrite_text(path, "short")
    assert path.read_bytes() == b"short"
    rewrite_text(path, "y" * 50)
    assert path.read_bytes() == b"y" * 50
    rewrite_text(path, "café")
    assert path.read_bytes() == "café".encode("utf-8")


def test_rewrite_keeps_the_file_in_place(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"old content")
    inode = os.stat(path).st_ino
    rewrite_text(path, "new")
    assert os.stat(path).st_ino == inode
    assert path.read_bytes() == b"new"
