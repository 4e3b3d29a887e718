"""prodex.files reads and writes what pathlib reads and writes, and it is the
only module in ``src/prodex`` that opens a file.

``read_text`` must return or raise exactly what ``Path.read_text`` does: a
page that is not UTF-8 reaches failures.json with the decoding error's
message. The writes must leave pathlib's bytes, so the corpus and every run
file stay as they were; an atomic write escapes a lone surrogate, as
``Path.write_text(..., errors="backslashreplace")`` did.
"""

import ast
import os
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from prodex import files

SRC = Path(__file__).resolve().parent.parent / "src" / "prodex"

#: Pieces that exercise the text rules: line breaks of three kinds, a byte
#: order mark, a lone surrogate's encoding, and bytes that are not UTF-8 or
#: end a character early.
_PIECES = [b"a", b"\n", b"\r", b"\r\n", "\ufeff".encode(), "ä€😀".encode(), b"\xff",
           b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\x00"]
_BYTES = st.one_of(st.binary(max_size=64),
                   st.lists(st.sampled_from(_PIECES), max_size=24).map(b"".join))
#: Texts with line breaks, a byte order mark and lone surrogates.
_TEXTS = st.one_of(
    st.text(max_size=64),
    st.lists(st.sampled_from(["a", "\n", "\r", "\r\n", "\ufeff", "ä€😀", "\ud800", "\udfff",
                              "\x00"]), max_size=24).map("".join),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


def _outcome(call, *args):
    """What ``call`` returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


def _open_fds():
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


@settings(max_examples=300, deadline=None)
@given(_BYTES)
@example(b"\xef\xbb\xbfa\r\nb\rc\n")
@example(b"ok\xffthen")
@example(b"\xe2\x82")
def test_read_text_returns_or_raises_what_path_read_text_does(workdir, data):
    path = workdir / "page.html"
    path.write_bytes(data)
    before = _open_fds()
    assert _outcome(files.read_text, str(path)) == _outcome(Path.read_text, path, "utf-8")
    assert _outcome(files.read_text, path) == _outcome(Path.read_text, path, "utf-8")
    assert _open_fds() == before


@pytest.mark.parametrize("name", ["missing.html", "."], ids=["missing", "a-directory"])
def test_read_text_raises_what_path_read_text_raises(workdir, name):
    path = workdir / name
    before = _open_fds()
    assert _outcome(files.read_text, str(path)) == _outcome(Path.read_text, path, "utf-8")
    assert _open_fds() == before


def _written(write, path: Path, given, text):
    """The bytes ``write(given, text)`` leaves at ``path``, the same file as
    ``given``, or the type of what it raises."""
    try:
        write(given, text)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)
    return path.read_bytes()


def _streamed(path, text):
    with files.atomic_writer(path) as fh:
        fh.write(text[: len(text) // 2])
        fh.write(text[len(text) // 2:])


@settings(max_examples=300, deadline=None)
@given(_TEXTS)
@example("x\ud800y")
def test_writes_leave_the_bytes_path_write_text_leaves(workdir, text):
    theirs, ours, tmp = workdir / "theirs.txt", workdir / "ours.txt", workdir / "ours.txt.tmp"
    before = _open_fds()
    for write, reference in (
        (files.write_text, lambda path, text: path.write_text(text, encoding="utf-8")),
        (files.write_atomic, lambda path, text: path.write_text(
            text, encoding="utf-8", errors="backslashreplace")),
        (_streamed, lambda path, text: path.write_text(text, encoding="utf-8")),
    ):
        for path in (theirs, ours, tmp):
            path.unlink(missing_ok=True)
        expected = _written(reference, theirs, theirs, text)
        assert _written(write, ours, ours, text) == expected
        assert _written(write, ours, str(ours), text) == expected
        assert not tmp.exists() or expected is UnicodeEncodeError
    assert _open_fds() == before


def test_write_text_refuses_a_lone_surrogate_before_touching_the_file(workdir):
    path = workdir / "kept.txt"
    path.write_bytes(b"kept")
    with pytest.raises(UnicodeEncodeError):
        files.write_text(path, "a\udc80")
    assert path.read_bytes() == b"kept"


def test_an_interrupted_stream_leaves_the_previous_file(workdir):
    path = workdir / "streamed.json"
    path.write_bytes(b"previous")
    with pytest.raises(KeyError):
        with files.atomic_writer(path) as fh:
            fh.write("partial")
            raise KeyError("interrupted")
    assert path.read_bytes() == b"previous"
    assert (workdir / "streamed.json.tmp").read_bytes() == b"partial"


#: Calls that open a file, by the name called.
_OPENERS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def test_only_the_files_module_opens_files():
    """Every whole-file read and write in src goes through prodex.files, so
    the fault-injection tests that patch it cover every write."""
    found = []
    for source in sorted(SRC.rglob("*.py")):
        if source == SRC / "files.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in _OPENERS:
                found.append(f"{source.name}:{node.lineno} {func.id}(")
            elif (isinstance(func, ast.Attribute) and func.attr in _OPENERS
                  and not (isinstance(func.value, ast.Name) and func.value.id == "files")):
                found.append(f"{source.name}:{node.lineno} .{func.attr}(")
    assert found == []
