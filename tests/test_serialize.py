import json
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from entkit.bipartite import BipartiteSpace, PureState
from entkit.errors import DimensionError
from entkit.fixtures import projective_povm, random_povm, trine_povm
from entkit.linalg import haar_unitary, random_state
from entkit.measurement import swap_scheme
from entkit.serialize import (
    canonical_json,
    matrix_from_json,
    matrix_to_json,
    povm_from_json,
    povm_to_json,
    scheme_from_json,
    scheme_to_json,
    state_to_json,
    vector_from_json,
    vector_to_json,
    write_atomic,
)


class TestMatrixJson:
    def test_round_trip(self):
        u = haar_unitary(3, 9)
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(u)), u)

    def test_schema_fields(self):
        obj = matrix_to_json(np.array([[1 + 2j, 0], [0, 1]]))
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["re"] == [1.0, 0.0, 0.0, 1.0]
        assert obj["im"] == [2.0, 0.0, 0.0, 0.0]

    def test_vector_is_single_column(self):
        v = random_state(4, 2)
        obj = vector_to_json(v)
        assert obj["cols"] == 1
        np.testing.assert_array_equal(vector_from_json(obj), v)

    def test_bad_entry_count(self):
        with pytest.raises(DimensionError):
            matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})

    def test_non_vector_rejected(self):
        with pytest.raises(DimensionError):
            vector_from_json(matrix_to_json(np.eye(2)))

    @pytest.mark.parametrize("key", ["rows", "cols"])
    @pytest.mark.parametrize("value", [2.9, 2.0, True, "2", None])
    def test_shape_must_be_integer(self, key, value):
        obj = {**matrix_to_json(np.eye(2)), key: value}
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            matrix_from_json(obj)

    @pytest.mark.parametrize(
        "entries",
        [
            ["1", 0.0, 0.0, 1.0],
            [None, 0.0, 0.0, 1.0],
            [[1.0, 0.0], [0.0, 1.0]],
            [True] * 4,
            # numpy reads a boolean among numbers as 0 or 1.
            [True, 0.0, 0.0, 1.0],
            [1, 0, 0, False],
            [np.True_, 0.0, 0.0, 1.0],
            # Too large for a float.
            [10**400, 0, 0, 1],
        ],
    )
    def test_entries_must_be_numbers(self, entries):
        obj = {**matrix_to_json(np.eye(2)), "re": entries}
        with pytest.raises(ValueError, match="re must be a flat list of numbers"):
            matrix_from_json(obj)

    def test_integer_entries_accepted(self):
        # A numpy integer size, as in a dict built in memory, is an integer too.
        obj = {"rows": np.int64(2), "cols": 1, "re": [1, 0], "im": [0, 2]}
        np.testing.assert_array_equal(vector_from_json(obj), [1, 2j])


class TestStateAndPovmJson:
    def test_state_round_trip(self):
        # The classify witness's input and image: dimensions and a vector.
        psi = PureState(BipartiteSpace(2, 3), random_state(6, 7))
        obj = state_to_json(psi)
        assert (obj["d1"], obj["d2"]) == (2, 3)
        np.testing.assert_array_equal(vector_from_json(obj["vec"]), psi.vec)

    def test_dimensions_must_be_integers(self):
        s = scheme_to_json(swap_scheme(trine_povm(), random_state(2, 12)))
        with pytest.raises(ValueError, match="object_dim must be an integer"):
            scheme_from_json({**s, "object_dim": 2.5})
        with pytest.raises(ValueError, match="dim must be an integer"):
            povm_from_json({**povm_to_json(trine_povm()), "dim": True})

    def test_povm_round_trip(self):
        e = random_povm(3, 4, 11)
        back = povm_from_json(povm_to_json(e))
        assert back.outcomes == e.outcomes
        for a, b in zip(back.effects, e.effects):
            np.testing.assert_array_equal(a, b)

    def test_povm_outcomes_must_be_a_list(self):
        # A string would be read as one label per character.
        obj = {**povm_to_json(projective_povm(2)), "outcomes": "01"}
        with pytest.raises(ValueError, match="outcomes must be a list"):
            povm_from_json(obj)

    def test_scheme_round_trip(self):
        s = swap_scheme(trine_povm(), random_state(2, 12))
        back = scheme_from_json(scheme_to_json(s))
        np.testing.assert_array_equal(back.coupling, s.coupling)
        np.testing.assert_array_equal(back.probe_init, s.probe_init)
        assert back.pointer.outcomes == s.pointer.outcomes


# JSON-like values: scalars (NaN, ±inf and -0.0 among the floats, numpy
# float64, non-ASCII strings), flat float lists, and lists, tuples and
# string- or integer-keyed dicts of them.
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.floats().map(np.float64) | st.text()
JSON_VALUES = st.recursive(
    _SCALARS | st.lists(st.floats(), min_size=1),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children)
    | st.dictionaries(st.integers(), children),
    max_leaves=20,
)


class TestCanonicalJson:
    def test_sorted_keys_and_round_trip_floats(self):
        text = canonical_json({"b": 0.1 + 0.2, "a": 1 / 3})
        assert text.index('"a"') < text.index('"b"')
        parsed = json.loads(text)
        assert parsed["b"] == 0.1 + 0.2
        assert parsed["a"] == 1 / 3

    def test_deterministic(self):
        obj = matrix_to_json(haar_unitary(4, 77))
        assert canonical_json(obj) == canonical_json(matrix_to_json(haar_unitary(4, 77)))

    @given(JSON_VALUES)
    @example(
        {
            "nan": [float("nan"), 1.0],
            "inf": [2.5, float("inf"), -float("inf")],
            "zero": [-0.0, 0.0],
            "empty": [[], {}, ()],
            "tuple": (0.5, 1.5),
            "mixed": [1, 2.0, True, None, "ü"],
            "numpy": [np.float64(0.25), 0.75],
            "ключ": {"nested": [[0.125] * 20, "x\ny"]},
        }
    )
    def test_same_bytes_as_json_dumps(self, obj):
        assert canonical_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


class TestWriteAtomic:
    def test_mode_follows_umask_and_target(self, tmp_path):
        # A new file gets 0o666 less the umask, as open() gives it; an
        # existing target keeps its own mode.
        fresh, kept = tmp_path / "new.json", tmp_path / "kept.json"
        previous = os.umask(0o022)
        try:
            os.close(os.open(kept, os.O_WRONLY | os.O_CREAT, 0o640))
            write_atomic(str(fresh), "x\n")
            write_atomic(str(kept), "x\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert kept.read_text() == "x\n"

    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.json"
        write_atomic(str(target), "first\n")
        write_atomic(str(target), "second\n")
        assert target.read_text() == "second\n"
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert not leftovers
