import json

import numpy as np
import pytest

from qspectra import QMatrix, Quaternion
from qspectra import generate as gen
from qspectra.errors import InputFormatError
from qspectra.serialize import (
    matrix_from_json,
    matrix_to_json,
    quaternion_from_list,
    quaternion_from_text,
    quaternion_to_list,
)

AWKWARD = [0.1, 1.0 / 3.0, -2.5e-17, 1e300, np.nextafter(1.0, 2.0)]


def text(q: Quaternion) -> str:
    """q as 'w,x,y,z', each component by its repr."""
    return ",".join(repr(c) for c in (q.w, q.x, q.y, q.z))


class TestQuaternionRoundTrip:
    def test_json_bit_exact(self):
        q = Quaternion(*AWKWARD[:4])
        text = json.dumps(quaternion_to_list(q))
        back = quaternion_from_list(json.loads(text))
        assert back == q

    def test_text_bit_exact(self):
        q = Quaternion(AWKWARD[4], 0.1, -1.0 / 3.0, 7.25)
        assert quaternion_from_text(text(q)) == q

    def test_random_bit_exact(self, rng):
        for _ in range(100):
            q = gen.random_quaternion(rng, scale=10.0 ** rng.integers(-12, 12))
            assert quaternion_from_text(text(q)) == q
            assert quaternion_from_list(json.loads(json.dumps(quaternion_to_list(q)))) == q

    @pytest.mark.parametrize(
        "bad", [[1, 2, 3], "1,2,3,4", [1, 2, 3, "x"], 7, [1, 2, 3, float("nan")]]
    )
    def test_rejects_malformed_list(self, bad):
        with pytest.raises(InputFormatError):
            quaternion_from_list(bad)

    @pytest.mark.parametrize("bad", ["1,2,3", "a,b,c,d", ""])
    def test_rejects_malformed_text(self, bad):
        with pytest.raises(InputFormatError):
            quaternion_from_text(bad)


class TestVectorAndMatrix:
    def test_matrix_roundtrip(self, rng):
        a = QMatrix(gen.random_qvector(rng, 9).reshape(3, 3, 4))
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(a))))
        assert (back - a).frobenius() == 0.0

    @pytest.mark.parametrize(
        "payload",
        [
            {"entries": []},
            {"n": 0, "entries": []},
            {"n": 2, "entries": [[[1, 0, 0, 0]]]},
            {"n": 1, "entries": [[[1, 0, 0]]]},
            {"n": "2", "entries": []},
            {"n": 1, "entries": [[[1, None, 0, 0]]]},
            {"n": 1, "entries": [[[1, "x", 0, 0]]]},
            {"n": 1, "entries": [[[1, float("nan"), 0, 0]]]},
            {"n": 2, "entries": [[[1, 0, 0, 0]] * 2, [[1, 0, 0, 0], [0, 0, float("inf"), 0]]]},
            {"n": 1, "entries": [[[1, [1.0], 0, 0]]]},
        ],
    )
    def test_matrix_schema_errors(self, payload):
        with pytest.raises(InputFormatError):
            matrix_from_json(payload)

    @pytest.mark.parametrize("bad", [None, "x", float("nan"), float("inf"), [1.0]])
    def test_vector_bad_component(self, bad):
        """A bad component in one entry of a row vector is named."""
        entries = [[[1.0, 0.0, 0.0, 0.0]] * 2, [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, bad, 0.0]]]
        with pytest.raises(InputFormatError, match="quaternion component"):
            matrix_from_json({"n": 2, "entries": entries})

    def test_numeric_strings_and_bools_parse(self):
        a = matrix_from_json({"n": 1, "entries": [[["1.5", 0, True, "-2"]]]})
        np.testing.assert_array_equal(a.a, [[[1.5, 0.0, 1.0, -2.0]]])

