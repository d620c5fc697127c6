"""Tests for the code-stream I/O of ``optrr disguise`` (repro.rr.streaming).

The block parser and the table writer must reproduce the frozen per-record
text loops (``tests/oracles/code_stream.py``) exactly on every stream of the
ASCII grammar ``[+-]?[0-9]+``: the same chunks, in the same sizes, with the
same values, and the same output bytes.  Tokens straddling block boundaries
are forced by shrinking the block size to a few bytes.
"""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError, ValidationError
from repro.rr import streaming
from repro.rr.streaming import CodeLineWriter, read_code_chunks
from tests.oracles.code_stream import (
    iter_code_chunks_reference,
    write_code_chunk_reference,
)

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Runs of separators, mixed: CRLF, vertical tab, form feed, \x1c-\x1f.
SEPARATORS = st.text(alphabet="\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ", min_size=1, max_size=4)


@st.composite
def tokens(draw) -> str:
    """One int64 code in the ASCII grammar: optional sign, leading zeros."""
    value = draw(st.integers(-(2**63), 2**63 - 1))
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    zeros = "0" * draw(st.integers(0, 3))
    return f"{sign}{zeros}{abs(value)}"


@st.composite
def code_streams(draw) -> str:
    """A stream of tokens; leading and trailing separators are optional, so
    streams without a final newline occur."""
    words = draw(st.lists(tokens() | st.integers(0, 99).map(str), max_size=40))
    text = draw(st.sampled_from(["", " ", "\r\n"]))
    for word in words:
        text += word + draw(SEPARATORS)
    if words and draw(st.booleans()):
        text = text.rstrip("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ")
    return text


def reference_chunks(text: str, chunk_size: int) -> list[np.ndarray]:
    stream = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
    return list(iter_code_chunks_reference(stream, chunk_size))


def assert_same_chunks(actual: list[np.ndarray], expected: list[np.ndarray]) -> None:
    assert [chunk.size for chunk in actual] == [chunk.size for chunk in expected]
    for got, want in zip(actual, expected):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


class TestReadCodeChunks:
    @SETTINGS
    @given(text=code_streams(), block_bytes=st.integers(1, 24), data=st.data())
    def test_matches_the_text_loop(self, text, block_bytes, data):
        n_codes = len(text.split())
        chunk_size = data.draw(st.integers(1, n_codes + 1), label="chunk_size")
        expected = reference_chunks(text, chunk_size)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(streaming, "CODE_BLOCK_BYTES", block_bytes)
            actual = list(read_code_chunks(io.BytesIO(text.encode()), chunk_size))
        assert_same_chunks(actual, expected)

    @pytest.mark.parametrize("text", ["", " \r\n\x0b\x1c ", "\n"])
    def test_empty_stream_has_no_chunks(self, text):
        assert list(read_code_chunks(io.BytesIO(text.encode()), 3)) == []
        assert reference_chunks(text, 3) == []

    def test_default_block_size_on_a_long_stream(self):
        codes = np.random.default_rng(0).integers(-(10**6), 10**6, size=60_000)
        text = " ".join(map(str, codes.tolist()))
        for chunk_size in (1, 4096, 65_536, 60_001):
            actual = list(read_code_chunks(io.BytesIO(text.encode()), chunk_size))
            assert_same_chunks(actual, reference_chunks(text, chunk_size))

    def test_digit_counts_around_the_exact_int_path(self):
        """17, 18 and 19 significant digits, both int64 extremes."""
        text = (
            "99999999999999999 -999999999999999999 +100000000000000000 "
            "123456789012345678 9223372036854775807 -9223372036854775808 "
            "1000000000000000000\n"
        )
        actual = list(read_code_chunks(io.BytesIO(text.encode()), 3))
        assert_same_chunks(actual, reference_chunks(text, 3))

    def test_a_token_longer_than_a_block_is_carried(self, monkeypatch):
        monkeypatch.setattr(streaming, "CODE_BLOCK_BYTES", 4)
        text = "1 " + "0" * 40 + "7 -00000000000000000000123\n5"
        (chunk,) = read_code_chunks(io.BytesIO(text.encode()), 10)
        np.testing.assert_array_equal(chunk, [1, 7, -123, 5])

    @pytest.mark.parametrize(
        ("text", "token"),
        [
            ("1 2\n1_0\n", "1_0"),
            ("٣\n", "٣"),
            ("4 + 5", "+"),
            ("--5", "--5"),
            ("5-", "5-"),
            ("1\xa02", "1\xa02"),
        ],
    )
    def test_rejects_tokens_outside_the_grammar(self, text, token):
        with pytest.raises(DataError) as caught:
            list(read_code_chunks(io.BytesIO(text.encode()), 2))
        assert str(caught.value) == f"input code {token!r} is not an integer"

    def test_invalid_utf8_is_named_with_backslashes(self):
        with pytest.raises(DataError) as caught:
            list(read_code_chunks(io.BytesIO(b"1\n\xff\xfe\n"), 2))
        assert str(caught.value) == r"input code '\\xff\\xfe' is not an integer"

    @pytest.mark.parametrize("block_bytes", [3, 64 * 1024])
    def test_names_the_first_bad_token_in_stream_order(self, monkeypatch, block_bytes):
        monkeypatch.setattr(streaming, "CODE_BLOCK_BYTES", block_bytes)
        stream = b"1 99999999999999999999 x 2"
        with pytest.raises(ValidationError, match="99999999999999999999 does not fit"):
            list(read_code_chunks(io.BytesIO(stream), 10))
        stream = b"1 x 99999999999999999999 y"
        with pytest.raises(DataError, match="'x' is not an integer"):
            list(read_code_chunks(io.BytesIO(stream), 10))

    def test_a_malformed_long_token_is_not_an_integer(self):
        stream = b"1_0000000000000000000000000"
        with pytest.raises(DataError, match="is not an integer"):
            list(read_code_chunks(io.BytesIO(stream), 1))

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(ValidationError):
            list(read_code_chunks(io.BytesIO(b"1"), 0))


class TestCodeLineWriter:
    @pytest.mark.parametrize("n_categories", [1, 9, 10, 11, 100, 1000])
    def test_matches_the_join_writer(self, n_categories):
        codes = np.random.default_rng(n_categories).integers(0, n_categories, 5_000)
        codes[:n_categories] = np.arange(min(n_categories, codes.size))
        binary, text = io.BytesIO(), io.StringIO()
        writer = CodeLineWriter(binary, n_categories)
        for chunk_size in (1, 7, 4096):
            for chunk in np.array_split(codes, range(chunk_size, codes.size, chunk_size)):
                writer.write(chunk)
                write_code_chunk_reference(text, chunk)
        assert binary.getvalue() == text.getvalue().encode("ascii")
