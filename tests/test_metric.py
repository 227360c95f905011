"""Quasi-metric and empirical transport tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from oracles import brute_force_assignment_cost
from segflow import (
    CapacityError,
    EmpiricalMeasure,
    MetricParams,
    RngStream,
    Segment,
    ShapeError,
    wasserstein,
)
from segflow import metric
from segflow.metric import DEFAULT_ASSIGNMENT_CAP, rho_matrix, rho_pairs
from segflow.segments import batch_sup_norms

R0, STEP = 0.5, 0.25


def rho(x, y, mp):
    """Quasi-distance between two segments, as one entry of ``rho_matrix``."""
    return rho_matrix(x.values[None], y.values[None], mp)[0, 0]


def seg(*node_values):
    return Segment(np.asarray(node_values, dtype=float)[:, None], R0, STEP)


def random_segments(gen, n, scale=1.5):
    return [Segment(scale * gen.standard_normal((3, 1)), R0, STEP) for _ in range(n)]


def measure(segments):
    return EmpiricalMeasure(np.stack([s.values for s in segments]), R0, STEP)


class TestMetricParams:
    def test_ranges(self):
        with pytest.raises(ValueError):
            MetricParams(p=0.5)
        with pytest.raises(ValueError):
            MetricParams(gamma=0.0)
        with pytest.raises(ValueError):
            MetricParams(gamma=1.5)


class TestRho:
    def test_identity(self):
        mp = MetricParams(2.0, 1.0)
        x = seg(0.3, -0.7, 1.1)
        assert rho(x, x, mp) == 0.0

    def test_symmetry(self):
        mp = MetricParams(3.0, 0.5)
        gen = RngStream(12).generator()
        for a, b in zip(random_segments(gen, 10), random_segments(gen, 10)):
            assert rho(a, b, mp) == pytest.approx(rho(b, a, mp), rel=1e-14)

    def test_unit_separation_value(self):
        mp = MetricParams(2.0, 1.0)
        assert rho(seg(0, 0, 0), seg(1, 1, 1), mp) == pytest.approx(math.sqrt(2.0))

    def test_saturated_bound(self):
        # rho never exceeds the moment weight
        mp = MetricParams(2.0, 0.7)
        gen = RngStream(13).generator()
        for a, b in zip(random_segments(gen, 20, 3.0), random_segments(gen, 20, 3.0)):
            cap = math.sqrt(
                1.0
                + np.abs(a.values).max() ** mp.p
                + np.abs(b.values).max() ** mp.p
            )
            assert rho(a, b, mp) <= cap + 1e-12

    def test_zero_iff_equal_on_grid(self):
        mp = MetricParams(2.0, 1.0)
        x = seg(0.1, 0.2, 0.3)
        y = seg(0.1, 0.2, 0.30001)
        assert rho(x, y, mp) > 0.0


def moment_weight(a_vals, b_vals, mp):
    """sqrt(1 + (|a|^p + |b|^p)) as one broadcast expression, summed in the
    order that makes it symmetric in a and b."""
    norm_a = batch_sup_norms(a_vals)
    norm_b = batch_sup_norms(b_vals)
    return np.sqrt(1.0 + (norm_a[:, None] ** mp.p + norm_b[None, :] ** mp.p))


def chunked_rho_matrix(a_vals, b_vals, mp):
    """The difference-array kernel ``rho_matrix`` used for every d, kept as the reference."""
    na, nb = a_vals.shape[0], b_vals.shape[0]
    weight = moment_weight(a_vals, b_vals, mp)
    out = np.empty((na, nb))
    chunk = max(1, int(2**22 // max(1, nb * a_vals.shape[1] * a_vals.shape[2])))
    for lo in range(0, na, chunk):
        hi = min(na, lo + chunk)
        diff = a_vals[lo:hi, None] - b_vals[None, :]  # (c, nb, m+1, d)
        dist = np.sqrt((diff**2).sum(axis=3)).max(axis=2)
        out[lo:hi] = np.minimum(1.0, dist**mp.gamma)
    out *= weight
    return out


def previous_rho_matrix(a_vals, b_vals, mp):
    """``rho_matrix`` before it built in place: the weight as one broadcast
    expression, and for d = 1 a fresh array per operation."""
    if a_vals.shape[2] > 1:
        return chunked_rho_matrix(a_vals, b_vals, mp)
    weight = moment_weight(a_vals, b_vals, mp)
    dist = cdist(a_vals[:, :, 0], b_vals[:, :, 0], "chebyshev")
    out = np.minimum(1.0, dist**mp.gamma)
    out *= weight
    return out


class TestRhoKernel:
    params = [MetricParams(p, g) for p in (1.0, 2.0, 3.0) for g in (0.3, 0.5, 1.0)]

    def assert_matches_reference(self, a, b):
        for mp in self.params:
            got = rho_matrix(a, b, mp)
            assert np.array_equal(got, chunked_rho_matrix(a, b, mp))
            # the weight sums 1 + (|a|^p + |b|^p); summed as (1 + |a|^p) + |b|^p,
            # a few percent of the entries would differ in the last bit
            assert np.array_equal(got, rho_matrix(b, a, mp).T)
            # the row-wise kernel is the diagonal, bit for bit
            n = min(len(a), len(b))
            assert np.array_equal(rho_pairs(a[:n], b[:n], mp), np.diag(got[:n, :n]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_batches(self, d):
        gen = RngStream(41).generator()
        for scale in (1e-3, 0.3, 1.5):
            self.assert_matches_reference(
                scale * gen.standard_normal((7, 9, d)), scale * gen.standard_normal((5, 9, d))
            )
        self.assert_matches_reference(gen.standard_normal((1, 9, d)), gen.standard_normal((1, 9, d)))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equal_and_zero_atoms(self, d):
        gen = RngStream(42).generator()
        a = gen.standard_normal((4, 9, d))
        zeros = np.zeros((3, 9, d))
        self.assert_matches_reference(a, a)
        self.assert_matches_reference(a, zeros)
        self.assert_matches_reference(zeros, zeros)
        assert np.all(np.diag(rho_matrix(a, a, MetricParams())) == 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tiny_differences(self, d):
        # squares of differences in [1e-150, 1e-100] are still normal numbers
        gen = RngStream(43).generator()
        tiny = lambda n: gen.choice([-1.0, 1.0], (n, 9, d)) * 10.0 ** gen.uniform(-150, -100, (n, 9, d))
        self.assert_matches_reference(tiny(6), tiny(4))

    @pytest.mark.parametrize("d", [1, 2])
    def test_batch_beyond_one_reference_chunk(self, d):
        gen = RngStream(44).generator()
        a = 0.05 * gen.standard_normal((300, 65, d))
        b = 0.05 * gen.standard_normal((300, 65, d))
        mp = MetricParams(2.0, 1.0)
        assert np.array_equal(rho_matrix(a, b, mp), chunked_rho_matrix(a, b, mp))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("gamma", [0.3, 1.0])
    def test_in_place_build_matches_previous_expression(self, d, p, gamma):
        gen = RngStream(47).generator()
        a = 1.5 * gen.standard_normal((130, 65, d))
        b = 1.5 * gen.standard_normal((120, 65, d))
        mp = MetricParams(p, gamma)
        assert np.array_equal(rho_matrix(a, b, mp), previous_rho_matrix(a, b, mp))

    @pytest.mark.parametrize(
        "b_shape", [(4, 9, 1), (1, 9, 1), (5, 9, 2), (5, 5, 1)], ids=["fewer", "one", "dim", "nodes"]
    )
    def test_pairs_of_unequal_shapes_rejected(self, b_shape):
        # a single segment is never broadcast against a batch
        gen = RngStream(46).generator()
        with pytest.raises(ShapeError):
            rho_pairs(gen.standard_normal((5, 9, 1)), gen.standard_normal(b_shape), MetricParams())

    def test_scalar_distance_exact_below_square_underflow(self):
        # for d = 1 the node distance is |x| itself, not sqrt(x**2), which
        # underflows to 0 here and would make distinct atoms coincide
        gen = RngStream(45).generator()
        x = 1e-165 * gen.standard_normal((3, 9, 1))
        zero = np.zeros((1, 9, 1))
        mp = MetricParams(2.0, 1.0)
        weight = np.sqrt(1.0 + batch_sup_norms(x) ** mp.p)
        got = rho_matrix(x, zero, mp)[:, 0]
        assert np.array_equal(got, np.abs(x).max(axis=(1, 2)) * weight)
        assert np.all(got > 0.0)


node_values = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestMetricProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        na=st.integers(1, 6),
        nb=st.integers(1, 6),
        nodes=st.integers(1, 5),
        d=st.sampled_from([1, 2]),
        mp=st.sampled_from(TestRhoKernel.params),
    )
    def test_rho_matrix_symmetric(self, data, na, nb, nodes, d, mp):
        a = data.draw(arrays(np.float64, (na, nodes, d), elements=node_values))
        b = data.draw(arrays(np.float64, (nb, nodes, d), elements=node_values))
        ab = rho_matrix(a, b, mp)
        ba = rho_matrix(b, a, mp).T
        # the moment weight sums 1 + (|a|^p + |b|^p), so the transpose is exact
        assert np.array_equal(ab, ba)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 9),
        d=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_wasserstein_permutation_invariant(self, data, n, d, seed):
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((n, 3, d))
        b = gen.standard_normal((n, 3, d))
        pa = np.asarray(data.draw(st.permutations(range(n))))
        pb = np.asarray(data.draw(st.permutations(range(n))))
        mp = MetricParams(2.0, 1.0)
        w = wasserstein(EmpiricalMeasure(a, R0, STEP), EmpiricalMeasure(b, R0, STEP), mp)
        assert w == wasserstein(EmpiricalMeasure(a[pa], R0, STEP), EmpiricalMeasure(b, R0, STEP), mp)
        assert w == wasserstein(EmpiricalMeasure(a, R0, STEP), EmpiricalMeasure(b[pb], R0, STEP), mp)


class TestWasserstein:
    mp = MetricParams(2.0, 1.0)

    def test_same_atoms(self):
        gen = RngStream(21).generator()
        m = measure(random_segments(gen, 8))
        assert wasserstein(m, m, self.mp) == 0.0

    def test_singletons_reduce_to_rho(self):
        x, y = seg(0, 0, 0), seg(1, 0.5, -2)
        assert wasserstein(measure([x]), measure([y]), self.mp) == rho(x, y, self.mp)

    def test_matches_brute_force_n3(self):
        gen = RngStream(22).generator()
        for _ in range(25):
            a = measure(random_segments(gen, 3))
            b = measure(random_segments(gen, 3))
            cost = rho_matrix(a.values, b.values, self.mp)
            assert wasserstein(a, b, self.mp) == pytest.approx(
                brute_force_assignment_cost(cost), rel=1e-12
            )

    def test_matches_brute_force_up_to_n7(self):
        gen = RngStream(23).generator()
        for n in (2, 4, 5, 6, 7):
            a = measure(random_segments(gen, n))
            b = measure(random_segments(gen, n))
            cost = rho_matrix(a.values, b.values, self.mp)
            assert wasserstein(a, b, self.mp) == pytest.approx(
                brute_force_assignment_cost(cost), rel=1e-12
            )

    def test_symmetry(self):
        gen = RngStream(24).generator()
        a = measure(random_segments(gen, 6))
        b = measure(random_segments(gen, 6))
        assert wasserstein(a, b, self.mp) == pytest.approx(wasserstein(b, a, self.mp), rel=1e-12)

    def test_never_exceeds_identity_coupling(self):
        gen = RngStream(25).generator()
        a = measure(random_segments(gen, 12))
        b = measure(random_segments(gen, 12))
        identity_cost = float(np.mean(
            [rho_matrix(a.values[i : i + 1], b.values[i : i + 1], self.mp)[0, 0] for i in range(12)]
        ))
        assert wasserstein(a, b, self.mp) <= identity_cost + 1e-12

    def test_permutation_invariant_bitwise(self):
        gen = RngStream(26).generator()
        segs_a = random_segments(gen, 9)
        segs_b = random_segments(gen, 9)
        perm = [4, 1, 7, 0, 8, 2, 6, 5, 3]
        w1 = wasserstein(measure(segs_a), measure(segs_b), self.mp)
        w2 = wasserstein(
            measure([segs_a[i] for i in perm]), measure([segs_b[i] for i in perm]), self.mp
        )
        assert w1 == w2

    def test_unequal_counts_rejected(self):
        gen = RngStream(27).generator()
        with pytest.raises(ShapeError):
            wasserstein(measure(random_segments(gen, 3)), measure(random_segments(gen, 4)), self.mp)

    def test_cap_enforced(self, monkeypatch):
        # raised before any cost matrix is built
        gen = RngStream(28).generator()
        n = DEFAULT_ASSIGNMENT_CAP + 1
        a = EmpiricalMeasure(gen.standard_normal((n, 3, 1)), R0, STEP)
        b = EmpiricalMeasure(gen.standard_normal((n, 3, 1)), R0, STEP)
        monkeypatch.setattr(metric, "rho_matrix", lambda *args: pytest.fail("cost matrix built"))
        with pytest.raises(CapacityError):
            wasserstein(a, b, self.mp)

    def test_incompatible_shapes_rejected(self):
        gen = RngStream(29).generator()
        a = measure(random_segments(gen, 2))
        fine = EmpiricalMeasure(
            gen.standard_normal((2, 5, 1)), R0, R0 / 4
        )
        with pytest.raises(ShapeError):
            wasserstein(a, fine, self.mp)
