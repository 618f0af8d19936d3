"""Wire-protocol framing: JSON lines, bare CSV, malformed input."""

import pytest

from repro.errors import ServeError
from repro.serve.protocol import MAX_LINE_BYTES, decode_line, encode_tuple


def test_json_round_trip():
    line = encode_tuple((430, 212, 317), source="bike", sent=1000.5)
    assert line.endswith(b"\n")
    values, source, sent = decode_line(line)
    assert values == (430, 212, 317)
    assert source == "bike"
    assert sent == 1000.5


def test_json_minimal_frame_defaults():
    values, source, sent = decode_line(b'{"v": [1, 2]}',
                                       default_source="fallback")
    assert values == (1, 2)
    assert source == "fallback"
    assert sent is None


def test_json_preserves_mixed_types():
    line = encode_tuple((1, 2.5, "station-a"))
    values, _, _ = decode_line(line)
    assert values == (1, 2.5, "station-a")


def test_csv_fallback():
    values, source, sent = decode_line(b"430,212,3.5,bike-x\n",
                                       default_source="csv")
    assert values == (430, 212, 3.5, "bike-x")
    assert source == "csv"
    assert sent is None


def test_csv_single_field():
    values, _, _ = decode_line(b"7")
    assert values == (7,)


@pytest.mark.parametrize("line", [
    b"",
    b"   \n",
    b"{not json}",
    b'{"no_v": 1}',
    b'{"v": "not-a-list"}',
    b'{"v": [1], "s": ""}',
    b'{"v": [1], "s": 5}',
    b'{"v": [1], "t": "soon"}',
    # json.loads accepts NaN/Infinity and bool is an int subclass: none of
    # them is an epoch time, and each would poison the skew gauges
    b'{"v": [1], "t": NaN}',
    b'{"v": [1], "t": Infinity}',
    b'{"v": [1], "t": -Infinity}',
    b'{"v": [1], "t": 1e400}',
    b'{"v": [1], "t": true}',
    b"\xff\xfe1,2\n",
])
def test_malformed_lines_raise(line):
    with pytest.raises(ServeError):
        decode_line(line)


def test_deeply_nested_json_is_malformed_not_a_crash():
    # 40 KB — under MAX_LINE_BYTES — but nested past the parser's stack
    line = b'{"v":' + b"[" * 20000 + b"]" * 20000 + b"}"
    assert len(line) < MAX_LINE_BYTES
    with pytest.raises(ServeError):
        decode_line(line)


def test_oversized_line_rejected():
    with pytest.raises(ServeError):
        decode_line(b"1," * (MAX_LINE_BYTES // 2 + 1))


def test_encode_without_optionals_is_compact():
    line = encode_tuple((1,))
    assert b'"s"' not in line and b'"t"' not in line
