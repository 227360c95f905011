"""Corrector half profiles that stop at the truncation checkpoint.

``limits._halves`` reads the two half profiles a state group at a time, in
lockstep, and stops them at the first checkpoint that meets the truncation
rule once every state has a value there.  Groups before the last read only
to a first horizon (the truncation found at the states one step back) and
are read again in full only when no checkpoint there meets the rule.  These
tests pin that the answer is bit-for-bit the one-pass answer of
``_reference_halves``, how far each profile steps, and the prefix property
it all rests on.
"""

import dataclasses
import math

import numpy as np
import pytest

from oracles import collect_profile
from segflow import (
    CenteredObservable,
    CorrectorConfig,
    DiscreteCorrectorConfig,
    EmpiricalMeasure,
    EstimatorInconsistencyError,
    IidChain,
    MonteCarloSemigroup,
    RateFit,
    RngStream,
    constant_segment,
    corrector,
    phi_f,
    qv_lln_check,
    variance_D,
    vph_residual,
)
from segflow import limits, semigroup
from segflow.limits import (
    AnyCorrectorConfig,
    AnyObservable,
    _halves,
    _HalfValues,
    _increments,
    _norm_hint,
)
from segflow.registry import build_model, build_observable
from segflow.segments import step_windows
from segflow.semigroup import SemigroupEvaluator

DT = 1.0 / 128.0
R0 = 0.5
SEED = 909


# ``limits._halves`` as it was before first horizons, verbatim but for the
# sums' first lag, now always 0: both profiles to the configured horizon,
# then the truncation rule.
def _reference_halves(
    f: AnyObservable, states: np.ndarray, cfg: AnyCorrectorConfig, sg: SemigroupEvaluator,
    dt: float, rng: RngStream,
) -> _HalfValues:
    """Corrector values at ``states`` from two independent half budgets.

    The type of ``cfg`` picks the scheme.  A :class:`CorrectorConfig`
    integrates ``t -> P_t f`` by trapezoid quadrature at step ``dt`` up to
    ``cfg.t_max`` with the :meth:`RateFit.tail_integral_bound`; a
    :class:`DiscreteCorrectorConfig` sums ``P_k f`` for k = 0 .. ``cfg.k_max``
    with the :meth:`RateFit.tail_sum_bound`.  Both are truncated at the earliest
    checkpoint where that tail, scaled by the observable's norm hint, falls
    below ``cfg.tail_fraction`` of the running value (median across states).
    """
    fit = cfg.rate_fit
    half = max(1, cfg.replicas // 2)
    if isinstance(cfg, DiscreteCorrectorConfig):
        profile = lambda r: collect_profile(*sg.profile_groups(f, states, cfg.k_max, half, r))
        tail = fit.tail_sum_bound
    else:
        profile = lambda r: collect_profile(*sg.profile_groups(f, states, cfg.t_max, half, r, quad_step=dt))
        tail = fit.tail_integral_bound
    pa = profile(rng.child(0))
    pb = profile(rng.child(1))
    scale = _norm_hint(f)
    bound = lambda x: scale * tail(x.item())
    grid = pa.grid
    idx = len(grid) - 1
    if cfg.auto_truncate:
        running = np.median(0.5 * (np.abs(pa.values) + np.abs(pb.values)), axis=0)
        for i in range(1, len(grid)):
            if bound(grid[i]) <= cfg.tail_fraction * max(running[i], 1e-300):
                idx = i
                break
    return _HalfValues(
        a=pa.values[:, idx],
        b=pb.values[:, idx],
        se_a=pa.ses[:, idx],
        se_b=pb.ses[:, idx],
        tail_bound=bound(grid[idx]),
        truncation=float(grid[idx]),
    )


class SpySemigroup(MonteCarloSemigroup):
    """Monte Carlo evaluator that logs, for every state group of a profile
    it streams and reads, ``(checkpoints read, checkpoints on the grid)``."""

    def __init__(self, model, dt):
        super().__init__(model, dt)
        self.reads = []

    def profile_groups(self, *args, **kwargs):
        grid, groups = super().profile_groups(*args, **kwargs)
        return grid, [(g0, g1, self._logged(columns, len(grid))) for g0, g1, columns in groups]

    def _logged(self, columns, cols):
        read = 0
        try:
            for item in columns:
                read += 1
                yield item
        finally:
            columns.close()
            self.reads.append((read, cols))


@pytest.fixture
def step_log(monkeypatch):
    """Steps taken by each ``step_windows`` call of the semigroup, logged as
    each driver is closed."""
    log = []

    def counting(*args, **kwargs):
        steps = -1  # the first yield is the initial state
        try:
            for item in step_windows(*args, **kwargs):
                steps += 1
                yield item
        finally:
            log.append(steps)

    monkeypatch.setattr(semigroup, "step_windows", counting)
    return log


@pytest.fixture(scope="module")
def model():
    return build_model("linear_delay_ou", {"a": 2.0, "b": 0.1, "r0": R0, "sigma": 1.0})


@pytest.fixture(scope="module")
def f():
    return CenteredObservable(build_observable("eval0"), 0.0, 0.0, 1)


@pytest.fixture(scope="module")
def fit():
    # the decay law of the reference model, roughly: truncations land near
    # t = 1.5 and k = 2, well inside the horizons below
    return RateFit(c_hat=1.0, beta_hat=1.7, r_squared=1.0, times=np.array([]), values=np.array([]))


@pytest.fixture(scope="module", params=["continuous", "discrete"])
def cfg(request, fit):
    if request.param == "continuous":
        return CorrectorConfig(rate_fit=fit, t_max=6.0, replicas=16)
    return DiscreteCorrectorConfig(rate_fit=fit, k_max=8, replicas=16)


def full_horizon(cfg):
    return cfg.t_max if isinstance(cfg, CorrectorConfig) else cfg.k_max


def start_states(n=6):
    return np.stack([constant_segment(1.0 + 0.5 * i, R0, DT).values for i in range(n)])


def wide(cfg):
    """``cfg`` with 1024 replicas per half, so 6 states run as two groups of
    4 and 2 states (4096 paths per group)."""
    return dataclasses.replace(cfg, replicas=2048)


def columns(cfg, horizon):
    """Checkpoints of a profile from 0 up to ``horizon``."""
    return round(horizon / DT) + 1 if isinstance(cfg, CorrectorConfig) else round(horizon) + 1


def steps(horizon):
    """Euler steps from 0 to ``horizon``, a time or a unit lag."""
    return round(horizon / DT)


def assert_halves_equal(got, want):
    for name in ("a", "b", "se_a", "se_b"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
    assert got.tail_bound == want.tail_bound
    assert got.truncation == want.truncation


class TestMatchesReference:
    """``_halves`` is ``_reference_halves`` bit for bit, for one state group
    and for two, with or without a first horizon and truncation."""

    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("case", ["first-horizon", "failing-first-horizon", "no-first-horizon",
                                      "no-auto-truncate", "nan"])
    def test_halves(self, model, f, cfg, groups, case):
        if groups == 2:
            cfg = wide(cfg)
        if case == "no-auto-truncate":
            cfg = dataclasses.replace(cfg, auto_truncate=False)
        elif case == "failing-first-horizon":
            cfg = dataclasses.replace(cfg, tail_fraction=0.01)  # pushes the rule past 1
        sg = NanKernel() if case == "nan" else MonteCarloSemigroup(model, DT)
        states = start_states()
        rng = RngStream(SEED).child(20)
        want = _reference_halves(f, states, cfg, sg, DT, rng)
        first = {"first-horizon": want.truncation, "no-first-horizon": None}.get(case, 0.5)
        got = _halves(f, states, cfg, sg, DT, rng, first_horizon=first)
        assert_halves_equal(got, want)
        if case in ("no-auto-truncate", "nan"):
            # a NaN running value never meets the rule, so it never stops a profile
            assert got.truncation == full_horizon(cfg)
        elif case == "failing-first-horizon":
            assert want.truncation > 1

    @pytest.mark.parametrize("groups", [1, 2])
    def test_without_ses_the_values_are_the_same(self, model, f, cfg, groups):
        if groups == 2:
            cfg = wide(cfg)
        sg = MonteCarloSemigroup(model, DT)
        rng = RngStream(SEED).child(21)
        want = _halves(f, start_states(), cfg, sg, DT, rng, first_horizon=0.5)
        got = _halves(f, start_states(), cfg, sg, DT, rng, first_horizon=0.5, ses=False)
        assert got.se_a is None and got.se_b is None
        assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)
        assert (got.tail_bound, got.truncation) == (want.tail_bound, want.truncation)


class TestSteps:
    """How far a one-group batch steps, counted at ``step_windows``."""

    def test_one_group_steps_exactly_to_the_truncation(self, model, f, cfg, step_log):
        got = _halves(f, start_states(), cfg, MonteCarloSemigroup(model, DT), DT, RngStream(SEED).child(30))
        assert got.truncation < full_horizon(cfg)
        assert step_log == [steps(got.truncation)] * 2

    def test_a_failing_first_horizon_steps_no_step_twice(self, model, f, cfg, step_log):
        cfg = dataclasses.replace(cfg, tail_fraction=0.01)  # pushes the rule past 1
        sg = MonteCarloSemigroup(model, DT)
        got = _halves(f, start_states(), cfg, sg, DT, RngStream(SEED).child(31), first_horizon=0.5)
        assert 1 < got.truncation < full_horizon(cfg)
        assert step_log == [steps(got.truncation)] * 2


class TestFirstHorizon:
    """With several state groups, those before the last read to the first horizon."""

    def test_above_the_rule_is_one_short_pass(self, model, f, cfg):
        cfg = wide(cfg)
        states = start_states()
        rng = RngStream(SEED).child(0)
        want = _reference_halves(f, states, cfg, MonteCarloSemigroup(model, DT), DT, rng)
        first = math.ceil(want.truncation)
        assert first < full_horizon(cfg)
        sg = SpySemigroup(model, DT)
        got = _halves(f, states, cfg, sg, DT, rng, first_horizon=want.truncation)
        assert_halves_equal(got, want)
        cols = columns(cfg, full_horizon(cfg))
        assert sg.reads == [(columns(cfg, first), cols)] * 2 + [(columns(cfg, want.truncation), cols)] * 2

    def test_below_the_rule_reruns_to_the_full_horizon(self, model, f, cfg):
        cfg = dataclasses.replace(wide(cfg), tail_fraction=0.01)  # pushes the rule past 1
        states = start_states()
        rng = RngStream(SEED).child(1)
        want = _reference_halves(f, states, cfg, MonteCarloSemigroup(model, DT), DT, rng)
        assert want.truncation > 1
        sg = SpySemigroup(model, DT)
        got = _halves(f, states, cfg, sg, DT, rng, first_horizon=0.5)
        assert_halves_equal(got, want)
        cols = columns(cfg, full_horizon(cfg))
        # the first group to 1, then again in full; the last group reads on
        assert sg.reads == [(columns(cfg, 1), cols)] * 2 + [(cols, cols)] * 2 + [
            (columns(cfg, want.truncation), cols)
        ] * 2

    def test_without_auto_truncation_the_first_horizon_is_ignored(self, model, f, cfg):
        cfg = dataclasses.replace(wide(cfg), auto_truncate=False)
        states = start_states()
        rng = RngStream(SEED).child(2)
        want = _reference_halves(f, states, cfg, MonteCarloSemigroup(model, DT), DT, rng)
        assert want.truncation == full_horizon(cfg)
        sg = SpySemigroup(model, DT)
        got = _halves(f, states, cfg, sg, DT, rng, first_horizon=2.0)
        assert_halves_equal(got, want)
        cols = columns(cfg, full_horizon(cfg))
        assert sg.reads == [(cols, cols)] * 4

    def test_a_first_horizon_past_the_full_one_runs_once(self, model, f, cfg):
        cfg = wide(cfg)
        states = start_states()
        rng = RngStream(SEED).child(3)
        sg = SpySemigroup(model, DT)
        got = _halves(f, states, cfg, sg, DT, rng, first_horizon=full_horizon(cfg) + 0.5)
        cols = columns(cfg, full_horizon(cfg))
        assert sg.reads == [(cols, cols)] * 2 + [(columns(cfg, got.truncation), cols)] * 2

    def test_end_halves_ask_for_the_base_truncation_first(self, model, f, cfg):
        # a fit this steep makes the tail bound negligible from the first unit
        # on, so the end halves' rule passes inside the first horizon whatever
        # the draws
        steep = dataclasses.replace(cfg.rate_fit, beta_hat=50.0)
        cfg = dataclasses.replace(cfg, rate_fit=steep)
        sg = SpySemigroup(model, DT)
        inc = _increments(model, f, start_states(3), 4, wide(cfg), DT, RngStream(SEED).child(4), sg)
        cols = columns(cfg, full_horizon(cfg))
        first = math.ceil(inc.base.truncation)
        assert first < full_horizon(cfg)
        # base halves: 3 states, one group, stopped at the truncation
        assert sg.reads[:2] == [(columns(cfg, inc.base.truncation), cols)] * 2
        # end halves: 12 states in groups of 4; the first two read to the
        # first horizon, and the rule is met inside it
        assert sg.reads[2:6] == [(columns(cfg, first), cols)] * 4
        assert inc.end.truncation <= first
        assert sg.reads[6:] == [(columns(cfg, inc.end.truncation), cols)] * 2
        assert inc.end.se_a is None and inc.end.se_b is None


class TestCallersMatchOnePass:
    """Every estimator that reaches ``_halves`` gives the one-pass result."""

    def run_both(self, monkeypatch, model, call):
        sg = SpySemigroup(model, DT)
        got = call(sg)
        assert any(read < cols for read, cols in sg.reads)  # some halves stopped early
        with monkeypatch.context() as m:
            m.setattr(
                limits, "_halves",
                lambda *a, first_horizon=None, ses=True, **kw: _reference_halves(*a, **kw),
            )
            want = call(MonteCarloSemigroup(model, DT))
        return got, want

    def test_phi_f(self, monkeypatch, model, f, fit):
        cfg = CorrectorConfig(rate_fit=fit, t_max=6.0, replicas=16)
        xi = constant_segment(1.0, R0, DT)
        got, want = self.run_both(
            monkeypatch, model,
            lambda sg: phi_f(model, f, xi, 8, cfg, RngStream(SEED).child(5), sg=sg),
        )
        assert got == want

    @pytest.mark.parametrize("discrete", [False, True])
    def test_variance_pipelines(self, monkeypatch, model, f, fit, discrete):
        atoms = EmpiricalMeasure(start_states(8) - 1.5, R0, DT, groups=np.arange(8) // 2)
        if discrete:
            cfg = DiscreteCorrectorConfig(rate_fit=fit, k_max=8, replicas=16)
        else:
            cfg = CorrectorConfig(rate_fit=fit, t_max=6.0, replicas=16)
        got, want = self.run_both(
            monkeypatch, model,
            lambda sg: variance_D(model, f, atoms, cfg, RngStream(SEED).child(6), outer_replicas=4, sg=sg),
        )
        assert got == want

    def test_vph_residual(self, monkeypatch, model, f, fit):
        cfg = CorrectorConfig(rate_fit=fit, t_max=6.0, replicas=16)
        xi = constant_segment(1.0, R0, DT)
        got, want = self.run_both(
            monkeypatch, model,
            lambda sg: vph_residual(model, f, xi, cfg, RngStream(SEED).child(7), replicas=6, sg=sg),
        )
        assert got == want

    def test_qv_lln_check(self, monkeypatch, model, f, fit):
        cfg = DiscreteCorrectorConfig(rate_fit=fit, k_max=8, replicas=16)
        xi = constant_segment(1.0, R0, DT)
        got, want = self.run_both(
            monkeypatch, model,
            lambda sg: qv_lln_check(
                model, f, xi, 3, cfg, RngStream(SEED).child(8), d_hat_sq=0.35, replicas=8, sg=sg
            ),
        )
        assert got == want


class TestProfilePrefix:
    """A profile to a shorter horizon is the leading columns of the full one."""

    @pytest.mark.parametrize(
        "n_states, replicas", [(1, 2), (3, 8), (1024, 8)], ids=["narrow-1", "narrow-24", "wide-2x4096"]
    )
    @pytest.mark.parametrize("stride", [1, 2])
    def test_integral_profile(self, model, f, n_states, replicas, stride):
        sg = MonteCarloSemigroup(model, DT)
        states = np.resize(start_states(4), (n_states,) + start_states(1).shape[1:])
        rng = RngStream(SEED).child(10)
        full = collect_profile(*sg.profile_groups(f, states, 6.0, replicas, rng, quad_step=stride * DT))
        short = collect_profile(*sg.profile_groups(f, states, 3.0, replicas, rng, quad_step=stride * DT))
        cols = len(short.grid)
        assert cols == 3 * 128 // stride + 1
        assert np.array_equal(short.grid, full.grid[:cols])
        assert np.array_equal(short.values, full.values[:, :cols])
        assert np.array_equal(short.ses, full.ses[:, :cols])

    @pytest.mark.parametrize("n_states, replicas", [(3, 8), (1024, 8)], ids=["narrow-24", "wide-2x4096"])
    @pytest.mark.parametrize("mirrored", [0, 1])
    def test_discrete_profile(self, model, f, n_states, replicas, mirrored):
        # the one-block layout (0) and the mirror pairs of an antithetic f (1)
        g = dataclasses.replace(f, base=dataclasses.replace(f.base, antithetic=bool(mirrored)))
        sg = MonteCarloSemigroup(model, DT)
        states = np.resize(start_states(4), (n_states,) + start_states(1).shape[1:])
        rng = RngStream(SEED).child(11)
        full = collect_profile(*sg.profile_groups(g, states, 8, replicas, rng))
        short = collect_profile(*sg.profile_groups(g, states, 3, replicas, rng))
        cols = len(short.grid)
        assert cols == 4
        assert np.array_equal(short.grid, full.grid[:cols])
        assert np.array_equal(short.values, full.values[:, :cols])
        assert np.array_equal(short.ses, full.ses[:, :cols])


class NanKernel(SemigroupEvaluator):
    """Stub evaluator whose first ``nan_profiles`` profiles are NaN and the
    rest zeros."""

    def __init__(self, nan_profiles: float = math.inf):
        self.nan_profiles = nan_profiles

    def profile_groups(self, f, states, horizon, replicas, rng, quad_step=None, ses=True):
        if quad_step is None:
            grid = np.arange(horizon + 1)
        else:
            grid = np.arange(round(horizon / quad_step) + 1) * quad_step
        nan = self.nan_profiles > 0
        self.nan_profiles -= 1
        n = np.asarray(states).shape[0]
        columns = ((np.full(n, math.nan if nan else 0.0), np.zeros(n) if ses else None) for _ in grid)
        return grid, [(0, n, columns)]


class TestFailClosedOnNan:
    @pytest.mark.parametrize("beta_hat", [math.nan, 0.0, -0.5])
    def test_unusable_rate_fit_raises(self, model, f, fit, cfg, beta_hat):
        # a rate that is not positive bounds no tail: 0 divides by zero, and
        # -0.5 gives a negative bound that passes the truncation rule at once
        bad = dataclasses.replace(cfg, rate_fit=dataclasses.replace(fit, beta_hat=beta_hat))
        xi = constant_segment(1.0, R0, DT)
        with pytest.raises(ValueError, match="usable RateFit"):
            corrector(MonteCarloSemigroup(model, DT), f, xi, bad, RngStream(SEED).child(14))

    def test_nan_variance_estimate_raises(self, model, fit):
        f = CenteredObservable(build_observable("eval0"), 0.0, 0.0, 1)
        atoms = EmpiricalMeasure(start_states(4), R0, DT)
        cfg = CorrectorConfig(rate_fit=fit, t_max=2.0, replicas=4)
        with pytest.raises(EstimatorInconsistencyError, match="NaN"):
            variance_D(model, f, atoms, cfg, RngStream(SEED).child(12), outer_replicas=4, sg=NanKernel())

    def test_nan_increments_are_not_zero_signal(self, fit):
        shape = constant_segment(0.0, R0, DT).values.shape
        chain = IidChain(lambda gen, n: np.zeros((n,) + shape))
        f = CenteredObservable(build_observable("zero"), 0.0, 0.0, 1)
        cfg = DiscreteCorrectorConfig(rate_fit=fit, k_max=3, replicas=4)
        # the increments' two half profiles come first: NaN; the two
        # telescoped corrector pairs after them are zeros
        rep = qv_lln_check(
            chain, f, constant_segment(0.0, R0, DT), 8, cfg, RngStream(SEED).child(13),
            d_hat_sq=0.0, replicas=8, sg=NanKernel(nan_profiles=2),
        )
        assert rep.w0_ratio == 0.0
        assert math.isnan(rep.w4_ratio)
        assert not rep.zero_signal
        assert not rep.w4_passed
        assert rep.w0_passed
