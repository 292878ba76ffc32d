import os

import pytest

from pacloud.files import Journal, from_json, json_line, rewrite_text


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


def test_from_json_turns_deep_nesting_into_a_value_error():
    assert from_json(b'{"a":[1]}') == {"a": [1]}
    with pytest.raises(ValueError, match="nested too deeply"):
        from_json(b"[" * 100_000)
    with pytest.raises(ValueError):
        from_json("not json")
    # bytes are UTF-8 with no byte order mark, as on the wire
    with pytest.raises(ValueError):
        from_json(b"\xef\xbb\xbf{}")
    # constants Python's json accepts that are not JSON
    for constant in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError, match=f"{constant} is not JSON"):
            from_json(f'{{"duration": [{constant}]}}')


def test_from_json_refuses_a_number_no_float_holds():
    for text in ("1e400", "-1e400", "1.5e309"):
        with pytest.raises(ValueError, match=f"too large for a float: {text}"):
            from_json(f'{{"a": {text}}}')
    long = "9" * 400 + ".0"
    with pytest.raises(ValueError) as caught:
        from_json(f"[{long}]")
    assert len(str(caught.value)) < 100
    # the largest float, an underflow to zero, and an int past any float,
    # which the decoders that want a float check themselves
    assert from_json(b'[1.7976931348623157e308, 1e-400]') == [1.7976931348623157e308, 0.0]
    assert from_json("1" + "0" * 400) == 10**400


def test_a_deeply_nested_last_journal_line_is_dropped_as_torn(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_bytes(json_line({"n": 1}) + b"[" * 100_000 + b"\n")
    journal = Journal(path)
    assert journal.read() == [{"n": 1}]
    journal.append({"n": 2})
    journal.close()
    assert path.read_bytes() == json_line({"n": 1}) + json_line({"n": 2})
