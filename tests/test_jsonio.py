import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jsonio_reference as reference
from qtp import DataError
from qtp.jsonio import dumps, fmt_float, read_text, write_text

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-10**300, 10**300),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, sys.float_info.max, 1e16, 0.1]),
    st.builds(np.float64, st.floats(allow_nan=False, allow_infinity=False)),
    st.text(),
    st.text(alphabet="abcXYZ_09"),
    st.sampled_from(["u3", "cx", "_x", "é", "q\"", "back\\slash", "tab\t", "\x00", "\u2028",
                     "ünïcode", "9lives", "", "a b", "\ud800"]),
)
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=5), st.sampled_from(["ops", "é", "a\"b"])),
                        inner, max_size=5),
    ),
    max_leaves=25,
)


def _written(write, doc):
    try:
        return write(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(_DOCS)
    def test_same_bytes(self, doc):
        assert _written(dumps, doc) == _written(reference.dumps, doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                     object(), {1, 2}, np.int64(3)])
    def test_same_error(self, bad):
        for doc in (bad, [1, bad], {"a": [bad]}, [[bad, 2.0]]):
            out = _written(dumps, doc)
            assert isinstance(out, tuple)
            assert out == _written(reference.dumps, doc)

    def test_graph_document(self, corpus200):
        for circ in corpus200[:20]:
            doc = {"name": circ.name, "num_qubits": circ.num_qubits, "label": 1,
                   "ops": [[op.kind.value, list(op.qubits), list(op.params)] for op in circ.ops]}
            assert dumps(doc) == reference.dumps(doc)


class TestFmtFloat:
    @pytest.mark.parametrize("x, text", [
        (0.0, "0"), (-0.0, "-0"), (5e-324, "4.9406564584124654e-324"),
        (0.1 + 0.2, "0.30000000000000004"), (math.pi, "3.1415926535897931"),
        (1e300, "1.0000000000000001e+300"), (3, "3"), (-7, "-7"), (10**20, "1e+20"),
        (np.float64(0.1), "0.10000000000000001"), (np.float64(-0.0), "-0"),
    ])
    def test_17_digit_form(self, x, text):
        assert fmt_float(x) == text == format(float(x), ".17g")
        assert float(text) == x

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, np.float64("nan"),
                                   np.float64("-inf")])
    def test_non_finite_raises(self, x):
        with pytest.raises(ValueError, match="non-finite float"):
            fmt_float(x)


class TestText:
    def test_round_trip_is_utf8(self, tmp_path):
        path = tmp_path / "t.txt"
        write_text(path, "l\u00efne\n")
        assert path.read_bytes() == b"l\xc3\xafne\n"
        assert read_text(path) == "l\u00efne\n"

    def test_universal_newlines(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a;\r\nb;\rc;\n")
        assert read_text(path) == "a;\nb;\nc;\n"

    def test_undecodable_bytes_are_bad_data(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"ok\n\xe9\n")
        with pytest.raises(DataError) as exc:
            read_text(path)
        assert str(exc.value) == (
            "'utf-8' codec can't decode byte 0xe9 in position 3: invalid continuation byte")
