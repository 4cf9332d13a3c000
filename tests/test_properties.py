"""Property tests over the model's validity domain (|offset| <= L/10)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocal import (
    Geometry,
    double_deviation_array,
    prediction_jacobian,
    reduced_deviation_array,
    single_deviation_array,
)

GEOM = Geometry.prototype()
_coord = st.floats(-GEOM.L / 10, GEOM.L / 10, allow_nan=False)
_batches = st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=8).map(np.array)

_MODELS = (
    double_deviation_array,
    reduced_deviation_array,
    single_deviation_array,
    lambda dr, geom: prediction_jacobian(dr, geom, "double-full"),
    lambda dr, geom: prediction_jacobian(dr, geom, "double-reduced"),
)


@settings(max_examples=60, deadline=None)
@given(offsets=_batches)
def test_batch_row_equals_scalar_call(offsets):
    for model in _MODELS:
        batch = model(offsets, GEOM)
        assert batch.shape[0] == len(offsets)
        for i, dr in enumerate(offsets):
            assert np.array_equal(batch[i], model(dr, GEOM))
