import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jsonio_reference as reference
from qtp.jsonio import dumps

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
