"""The bit generator behind every stream.

A change of generator moves every draw; pinning the first normals of one
stream makes such a change show here by name, not as an opaque digest move.
"""

import numpy as np

from segflow import RngStream


class TestGenerator:
    def test_first_normals_are_pinned(self):
        got = RngStream(20240817).generator().standard_normal(4)
        want = [1.9118848585964545, 0.49431058181730064, 1.7754500354651046, 1.465206529401479]
        assert got.tolist() == want

    def test_each_call_restarts_the_stream(self):
        stream = RngStream(20240817).child(3)
        assert np.array_equal(stream.generator().standard_normal(64), stream.generator().standard_normal(64))

    def test_siblings_differ(self):
        parent = RngStream(20240817)
        a = parent.child(0).generator().standard_normal(64)
        b = parent.child(1).generator().standard_normal(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, parent.generator().standard_normal(64))
