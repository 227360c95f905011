"""Segment-valued states, path-dependent models, and the Euler-Maruyama integrator.

The state of a path-dependent SDE is a *segment*: the recent history of the
solution over a window of fixed length ``delay``, discretized on a uniform
grid of spacing ``step`` (``delay/step`` must be an integer so the oldest
history point lands exactly on a node).  A model is a pair of coefficient
maps ``drift: segment -> R^d`` and ``diffusion: segment -> R^{d x d}``
together with the dissipativity/ellipticity constants the model claims to
satisfy.

Simulation uses the explicit Euler-Maruyama scheme

    X(t + dt) = X(t) + drift(X_t) * dt + diffusion(X_t) @ (sqrt(dt) * Z)

where ``X_t`` is the current grid segment and ``Z`` is a standard normal
vector.  The integrator is vectorized over independent trajectories: models
may provide batched coefficient callbacks operating on arrays of segments,
which is what makes the statistical estimators in the rest of the package
affordable.  Batched arrays of segments always have shape ``(n, m+1, d)``:
batch index, then time node (oldest first), then coordinate.

:func:`record` is the one driver every estimator runs through: it steps a
batch and returns copies of the windows (or of an observable of them) at
chosen steps, plus running trapezoid integrals of an observable.  With
``shared_noise`` the batch is two equal halves driven by the same Gaussian
increments, the synchronous coupling of two ensembles.  The Euler loop
itself lives in :func:`step_windows`, whose recycled ring buffer never
leaves this module.  A single one-dimensional path runs on Python floats
with the same operation order, so it is bit-identical to the batched loop
at width 1 and several times faster; it serves models whose drift is written
as elementwise ``drift_ends`` and whose diffusion is a constant scalar or
``diffusion_ends``, and every other single path takes the batched loop.
:func:`_euler_maps` picks each coefficient's form once per run.

Two grid rules live here, each in one place.  :func:`grid_steps` is the one
time-grid rule: every time a pipeline steps to (a horizon, a checkpoint, a
quadrature end, the unit time) must be a whole number of steps, and it
returns that number or raises naming the offending input.  The segment-grid
rule, that ``delay/step`` is whole, fixes every segment's node layout and
lives in ``_history_nodes``.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import NumericBlowupError, ShapeError
from .rng import RngStream

__all__ = [
    "Segment",
    "ModelSpec",
    "Trajectory",
    "sup_norm",
    "segment_at",
    "simulate",
    "record",
    "grid_steps",
    "constant_segment",
]

# Relative slack when testing that step divides delay (one representable unit).
_GRID_RTOL = 1e-9
# Normal draws per generator call on narrow batches.
_ZBLOCK = 4096
# Ring-buffer rows of a single path: one precomputed window view per row.
_SCALAR_ROWS = 4096
# Byte budget of a wider batch's ring rows: a run faults in and zeroes only
# this much fresh memory, and the rows it steps through stay in cache.  A
# window still needs 2(m+1) rows, whatever the width.
_RING_BYTES = 1 << 20
# Rings from this size up get an anonymous mapping of their own (glibc's
# initial mmap threshold; smaller blocks come from the heap anyway).
_OWN_MAPPING_BYTES = 128 << 10


def grid_steps(t: float, step: float, what: str) -> int:
    """Number of steps ``step`` in the time ``t``: the one time-grid rule.

    ``t`` must be 0 or a positive whole number of steps, within
    ``1e-6 * max(1, |t|)``; otherwise raise ValueError naming ``what``.
    """
    k = int(round(t / step))
    if (k < 1 and t != 0) or abs(t - k * step) > 1e-6 * max(1.0, abs(t)):
        raise ValueError(f"{what} {t!r} must be a whole number of steps of {step!r}")
    return k


def _history_nodes(delay: float, step: float) -> int:
    """Number of sub-intervals m with delay = m * step, validated."""
    ratio = delay / step
    m = int(round(ratio))
    if m < 1 or abs(ratio - m) > _GRID_RTOL * max(1.0, ratio):
        raise ValueError(f"step {step!r} must divide delay {delay!r} exactly")
    return m


@dataclass(frozen=True)
class Segment:
    """One discretized history window.

    ``values[j]`` is the state at window time ``-delay + j*step``; the last
    row is the current state.  Point evaluation between nodes uses linear
    interpolation, matching the piecewise-linear path representation.
    """

    values: np.ndarray
    delay: float
    step: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2:
            raise ShapeError(f"segment values must be (m+1, d), got shape {vals.shape}")
        m = _history_nodes(self.delay, self.step)
        if vals.shape[0] != m + 1:
            raise ShapeError(
                f"segment needs {m + 1} nodes for delay={self.delay}, step={self.step}; "
                f"got {vals.shape[0]}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("segment values must all be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    def value_at(self, theta: float) -> np.ndarray:
        """State at window time ``theta`` in ``[-delay, 0]`` (linear interpolation)."""
        if not (-self.delay - _GRID_RTOL <= theta <= _GRID_RTOL):
            raise ValueError(f"theta={theta} outside [-{self.delay}, 0]")
        pos = (theta + self.delay) / self.step
        lo = min(int(math.floor(pos)), self.n_nodes - 2)
        lo = max(lo, 0)
        frac = pos - lo
        return (1.0 - frac) * self.values[lo] + frac * self.values[lo + 1]

    def endpoint(self) -> np.ndarray:
        return self.values[-1]


def constant_segment(value, delay: float, step: float, dim: Optional[int] = None) -> Segment:
    """Segment frozen at a single state (scalar or length-d vector)."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if dim is not None and v.size == 1:
        v = np.full(dim, v[0])
    m = _history_nodes(delay, step)
    return Segment(np.tile(v, (m + 1, 1)), delay, step)


def sup_norm(segment: Segment) -> float:
    """Maximum Euclidean node norm of a segment (grid-level uniform norm)."""
    return float(np.sqrt((segment.values**2).sum(axis=1)).max())


def batch_sup_norms(values: np.ndarray) -> np.ndarray:
    """Uniform norms of a batch of segment value arrays, shape (n, m+1, d) -> (n,)."""
    return np.sqrt((values**2).sum(axis=2)).max(axis=1)


@dataclass(frozen=True, kw_only=True)
class ModelSpec:
    """Coefficients of a path-dependent SDE plus its declared constants.

    Every field is keyword-only.

    Parameters
    ----------
    dim, delay: state dimension and history-window length.
    drift, diffusion: coefficient maps on single segments.  ``drift`` returns
        a length-``dim`` vector, ``diffusion`` a ``(dim, dim)`` matrix.
        ``drift`` may be omitted when ``drift_ends`` is given, ``diffusion``
        when ``diffusion_ends`` is.
    drift_ends: optional drift written as an elementwise function
        ``drift_ends(now, oldest)`` of the window's current node and its
        oldest node.  The same expression must serve Python floats and numpy
        arrays and give bit for bit the same value on both: the width-1
        integrator calls it on floats, and ``drift`` and ``drift_batch``,
        when not given, are derived from it on arrays.  An arithmetic error
        raised on floats counts as a non-finite drift.
    diffusion_ends: optional diagonal diffusion written the same way, as an
        elementwise ``diffusion_ends(now, oldest)`` returning the diagonal,
        under the same bit-for-bit contract and arithmetic-error rule.
        ``diffusion`` (its ``np.diag``) and ``diffusion_batch`` (diagonal
        convention), when not given, are derived from it; with
        ``drift_ends`` the width-1 integrator stays on floats.
    lambda1, lambda2: declared dissipativity constants.  Construction checks
        the side condition ``lambda1 > lambda2 * exp(lambda1 * delay)``.
    sigma_bound, sigma_inv_bound: declared uniform operator-norm bounds on the
        diffusion and its inverse.  ``sigma_inv_bound=None`` marks a model
        that does not claim invertible noise (e.g. deterministic test
        dynamics); ellipticity checks on such a model fail fast.
    drift_batch, diffusion_batch: optional vectorized coefficients acting on
        an ``(n, m+1, d)`` array of segments, returning ``(n, d)`` and
        ``(n, d, d)`` (or ``(n, d)``, read as diagonal) respectively.  The
        integrator falls back to looping over the scalar maps when absent.
    diffusion_is_constant: set when ``diffusion`` does not depend on the
        segment: the integrator evaluates it once per run, on the first
        initial window, and a constant scalar keeps a width-1 path with
        ``drift_ends`` on floats.
    """

    dim: int
    delay: float
    drift: Optional[Callable[[Segment], np.ndarray]] = None
    diffusion: Optional[Callable[[Segment], np.ndarray]] = None
    lambda1: float
    lambda2: float
    sigma_bound: float
    sigma_inv_bound: Optional[float]
    drift_ends: Optional[Callable] = None
    diffusion_ends: Optional[Callable] = None
    drift_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    diffusion_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    diffusion_is_constant: bool = False
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.delay <= 0:
            raise ValueError("delay must be positive")
        if not (self.lambda1 > 0):
            raise ValueError("lambda1 must be positive")
        if self.lambda2 < 0:
            raise ValueError("lambda2 must be non-negative")
        side = self.lambda1 - self.lambda2 * math.exp(self.lambda1 * self.delay)
        if side <= 0:
            raise ValueError(
                f"dissipativity side condition violated: lambda1={self.lambda1} must exceed "
                f"lambda2*exp(lambda1*delay)={self.lambda2 * math.exp(self.lambda1 * self.delay):.6g}"
            )
        ends = self.drift_ends
        if ends is not None:
            if self.drift is None:
                object.__setattr__(self, "drift", lambda seg: ends(seg.values[-1], seg.values[0]))
            if self.drift_batch is None:
                object.__setattr__(
                    self, "drift_batch", lambda segs: ends(segs[:, -1, :], segs[:, 0, :])
                )
        elif self.drift is None:
            raise ValueError("a model needs drift or drift_ends")
        sig_ends = self.diffusion_ends
        if sig_ends is not None:
            if self.diffusion is None:
                object.__setattr__(
                    self, "diffusion", lambda seg: np.diag(sig_ends(seg.values[-1], seg.values[0]))
                )
            if self.diffusion_batch is None:
                object.__setattr__(
                    self, "diffusion_batch", lambda segs: sig_ends(segs[:, -1, :], segs[:, 0, :])
                )
        elif self.diffusion is None:
            raise ValueError("a model needs diffusion or diffusion_ends")
        if not (0 <= self.sigma_bound < math.inf):
            raise ValueError("sigma_bound must be finite and non-negative")
        if self.sigma_inv_bound is not None and not (0 < self.sigma_inv_bound < math.inf):
            raise ValueError("sigma_inv_bound must be finite and positive when declared")

    @property
    def side_margin(self) -> float:
        """Slack ``lambda1 - lambda2 * exp(lambda1 * delay)`` of the side condition."""
        return self.lambda1 - self.lambda2 * math.exp(self.lambda1 * self.delay)

    def segment(self, values, step: float) -> Segment:
        return Segment(np.asarray(values, dtype=float), self.delay, step)


@dataclass(frozen=True)
class Trajectory:
    """A simulated path on a uniform grid, including its initial history.

    ``states[k]`` is the state at time ``-delay + k*step``; the first ``m+1``
    rows reproduce the initial segment and index ``m`` corresponds to t=0.
    """

    model: ModelSpec
    step: float
    horizon: float
    states: np.ndarray
    seed: RngStream

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def n_history(self) -> int:
        return _history_nodes(self.model.delay, self.step)


def segment_at(traj: Trajectory, t: float) -> Segment:
    """Extract the history window of ``traj`` ending at time ``t``.

    On-grid times return an exact copy of the stored states; off-grid times
    resample the window onto the segment grid by linear interpolation.

    Raises
    ------
    ValueError: if ``t`` lies outside ``[0, horizon]``.
    """
    if not (-_GRID_RTOL <= t <= traj.horizon * (1 + _GRID_RTOL) + _GRID_RTOL):
        raise ValueError(f"t={t} outside [0, {traj.horizon}]")
    m = traj.n_history
    pos = t / traj.step  # grid offset of t past the window start index m
    k = int(round(pos))
    if abs(pos - k) <= _GRID_RTOL * max(1.0, abs(pos)):
        window = traj.states[k : k + m + 1]
        return Segment(window, traj.model.delay, traj.step)
    lo = int(math.floor(pos))
    frac = pos - lo
    idx = np.arange(lo, lo + m + 1)
    window = (1.0 - frac) * traj.states[idx] + frac * traj.states[idx + 1]
    return Segment(window, traj.model.delay, traj.step)


def _window_segments(segs: np.ndarray, delay: float, step: float) -> Iterator[Segment]:
    """Read-only :class:`Segment` views of a ring window batch (n, m+1, d).

    The ring's windows have m+1 nodes by construction and are checked finite
    at the initial segment and after every step, so ``Segment``'s validation
    and copy are skipped; a callback that writes into its segment raises.
    """
    segs = segs.view()
    segs.flags.writeable = False
    for values in segs:
        seg = object.__new__(Segment)
        object.__setattr__(seg, "values", values)
        object.__setattr__(seg, "delay", delay)
        object.__setattr__(seg, "step", step)
        yield seg


def _euler_maps(model: ModelSpec, init: np.ndarray, step: float):
    """The run's drift map, noise map and constant scalar diffusion (or None).

    ``drift(segs)`` and ``noise(segs, z, out)`` take an (n, m+1, d) window
    batch and scaled normals ``z`` (n, d); each uses the model's batched
    callback if it has one and loops the per-segment map over
    :func:`_window_segments` otherwise.  ``noise`` returns its (n, d) value,
    written into the scratch array ``out`` where its form is elementwise.  A
    constant diffusion is evaluated once, on the first initial window.
    """
    delay = model.delay
    if model.drift_batch is not None:
        drift = model.drift_batch
    else:
        def drift(segs):
            out = np.empty((segs.shape[0], model.dim))
            for i, seg in enumerate(_window_segments(segs, delay, step)):
                out[i] = model.drift(seg)
            return out
    c = None
    if model.diffusion_is_constant:
        sig = np.asarray(model.diffusion(Segment(init[0], delay, step)), dtype=float)
        if sig.ndim == 0 or sig.shape == (1, 1):
            c = float(np.ravel(sig)[0])
            noise = lambda segs, z, out: np.multiply(c, z, out=out)
        else:
            noise = lambda segs, z, out: z @ sig.T
    elif model.diffusion_batch is not None:
        def noise(segs, z, out):
            sig = np.asarray(model.diffusion_batch(segs))
            if sig.ndim == 2:  # diagonal convention
                return np.multiply(sig, z, out=out)
            return np.einsum("nij,nj->ni", sig, z)
    else:
        def noise(segs, z, out):
            for i, seg in enumerate(_window_segments(segs, delay, step)):
                out[i] = np.asarray(model.diffusion(seg)) @ z[i]
            return out
    return drift, noise, c


def _ring(shape: tuple[int, ...]) -> np.ndarray:
    """Uninitialised float array for a ring buffer, kept off the heap when large.

    glibc serves a large block by mmap and, when it is freed, raises its mmap
    threshold to that block's size (up to 32 MiB); smaller arrays then stay
    on the heap and keep their pages resident.  Ring sizes follow the run's
    horizon, so a mapping of their own keeps a shorter run from raising the
    process's peak memory.
    """
    nbytes = 8 * math.prod(shape)
    if nbytes < _OWN_MAPPING_BYTES or not hasattr(mmap, "MAP_ANONYMOUS"):
        return np.empty(shape)
    owned = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(owned, dtype=float).reshape(shape)


def step_windows(
    model: ModelSpec,
    initial_values: np.ndarray,
    n_steps: int,
    step: float,
    rng: RngStream,
    chunk: Optional[int] = None,
    shared_noise: bool = False,
) -> Iterator[tuple[int, np.ndarray]]:
    """Drive a batch of trajectories, yielding each new segment window.

    Parameters
    ----------
    initial_values: array (n, m+1, d) of initial segments.
    n_steps: number of Euler-Maruyama steps to take.
    rng: stream owning every draw of this batch.
    chunk: ring-buffer block length; memory stays O(chunk * n * d).  The
        default is 4096 rows for a single one-dimensional path and otherwise
        about 1 MiB of rows (``_RING_BYTES``), but never fewer than the
        2(m+1) rows a window needs.
    shared_noise: the batch is two equal halves, and trajectory ``i`` of each
        half consumes the same normal draw at every step.

    Yields
    ------
    (j, windows): step index ``j`` (0 = initial state, time ``j*step``) and a
    read-only view of the current batch of segments, shape (n, m+1, d).
    Consumers must not hold references across iterations: the buffer is
    recycled.

    Raises
    ------
    ShapeError: ``shared_noise`` with an odd batch width.
    NumericBlowupError: the first time a state goes non-finite, with the time.
    """
    init = np.asarray(initial_values, dtype=float)
    if init.ndim == 2:
        init = init[None]
    n, nodes, d = init.shape
    m = nodes - 1
    if d != model.dim:
        raise ShapeError(f"initial segments have dim {d}, model has {model.dim}")
    if shared_noise and n % 2:
        raise ShapeError(f"a shared-noise batch needs two equal halves, got width {n}")
    gen = rng.generator()
    sq = math.sqrt(step)

    # Time-major ring buffer: rows are grid times, windows are contiguous views.
    if chunk is None:
        # a single path's ring stays short: the float kernel keeps one view per row
        chunk = max(2 * (m + 1), _SCALAR_ROWS if n * d == 1 else _RING_BYTES // (8 * n * d))
    rows = max(2 * (m + 1), min(chunk, n_steps + m + 1))
    buf = _ring((rows + m + 1, n, d))
    buf[: m + 1] = init.transpose(1, 0, 2)
    head = m  # buffer row of the current state

    if not np.isfinite(buf[: m + 1]).all():
        raise NumericBlowupError("non-finite initial segment", 0.0)
    drift_map, noise_map, c = _euler_maps(model, init, step)
    sig_ends = None if model.diffusion_is_constant else model.diffusion_ends
    if n * d == 1 and model.drift_ends is not None and (c is not None or sig_ends is not None):
        yield from _scalar_windows(model.drift_ends, c, sig_ends, buf, m, n_steps, step, gen)
        return

    # narrow batches amortize the generator call over many steps; the draw
    # sequence is the same at any block length (values come off the stream
    # in order)
    nz = n // 2 if shared_noise else n
    zbuf = np.empty((max(1, _ZBLOCK // max(1, nz * d)), nz, d))
    zoff = zbuf.shape[0]  # force a refill on first use
    # per-step scratch: scaled normals (both halves under shared noise), the
    # noise term and drift * step
    zs, noise_out, drift_step = np.empty((n, d)), np.empty((n, d)), np.empty((n, d))

    yield 0, buf[head - m : head + 1].transpose(1, 0, 2)

    for j in range(1, n_steps + 1):
        if head + 1 >= buf.shape[0]:
            buf[: m + 1] = buf[head - m : head + 1]
            head = m
        window = buf[head - m : head + 1]
        segs = window.transpose(1, 0, 2)
        drift = drift_map(segs)
        if zoff == zbuf.shape[0]:
            gen.standard_normal(zbuf.shape, out=zbuf)
            zoff = 0
        np.multiply(zbuf[zoff], sq, out=zs[:nz])
        zoff += 1
        if shared_noise:
            zs[nz:] = zs[:nz]
        nxt = buf[head + 1]
        noise = noise_map(segs, zs, noise_out)
        np.add(window[-1], noise, out=nxt)
        nxt += np.multiply(drift, step, out=drift_step)
        head += 1
        total = float(nxt.sum())
        if not math.isfinite(total):  # NaN/Inf propagate through the sum
            if not np.isfinite(drift).all() or not np.isfinite(noise).all():
                raise NumericBlowupError("drift/diffusion produced non-finite output", j * step)
            raise NumericBlowupError("state became non-finite", j * step)
        yield j, buf[head - m : head + 1].transpose(1, 0, 2)


def _scalar_windows(
    ends: Callable,
    c: Optional[float],
    sig_ends: Optional[Callable],
    buf: np.ndarray,
    m: int,
    n_steps: int,
    step: float,
    gen: np.random.Generator,
) -> Iterator[tuple[int, np.ndarray]]:
    """:func:`step_windows` for a single one-dimensional path, on Python floats.

    The state update keeps the batched loop's operation order,
    ``x = (x + c*(z*sqrt(dt))) + drift*dt``, and the normals come off the
    stream in the same blocks, so every state is bit-identical to the
    batched loop at width 1.  The drift is ``ends(now, oldest)`` and the
    diffusion the constant scalar ``c`` or, given ``sig_ends``,
    ``float(sig_ends(now, oldest))``.  ``buf`` is the (rows, 1, 1) ring
    buffer whose first ``m+1`` rows hold the initial segment; the windows
    yielded are precomputed read-only views of it.
    """
    flat = buf.reshape(-1)
    path = flat.tolist()  # float copy of the ring, read by the *_ends callbacks
    views = [buf[h - m : h + 1].transpose(1, 0, 2) for h in range(m, flat.size)]
    for view in views:
        view.flags.writeable = False
    sq = math.sqrt(step)
    zs, zoff = [], _ZBLOCK
    head = m
    x = path[head]

    yield 0, views[0]

    for j in range(1, n_steps + 1):
        if head + 1 == flat.size:
            flat[: m + 1] = flat[head - m : head + 1]
            path[: m + 1] = path[head - m : head + 1]
            head = m
        if zoff == _ZBLOCK:
            zs = gen.standard_normal(_ZBLOCK).tolist()
            zoff = 0
        z = zs[zoff]
        zoff += 1
        oldest = path[head - m]
        try:
            drift = ends(x, oldest)
            if sig_ends is not None:
                # numpy ufuncs return numpy scalars; float() is exact and
                # keeps x a Python float
                drift, c = float(drift), float(sig_ends(x, oldest))
        except ArithmeticError:  # where numpy returns inf or nan
            raise NumericBlowupError("drift/diffusion produced non-finite output", j * step)
        noise = c * (z * sq)
        x = (x + noise) + drift * step
        head += 1
        flat[head] = x
        path[head] = x
        if not math.isfinite(x):
            if not (math.isfinite(drift) and math.isfinite(noise)):
                raise NumericBlowupError("drift/diffusion produced non-finite output", j * step)
            raise NumericBlowupError("state became non-finite", j * step)
        yield j, views[head - m]


def record(
    model: ModelSpec,
    initial_values: np.ndarray,
    n_steps: int,
    step: float,
    rng: RngStream,
    *,
    sample_at: Sequence[int] = (),
    sample: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    integrate_at: Sequence[int] = (),
    integrand: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    shared_noise: bool = False,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Run one batch for ``n_steps`` steps and keep what the caller asks for.

    Parameters
    ----------
    initial_values, n_steps, step, rng, shared_noise: as for
        :func:`step_windows`.
    sample_at: steps (0 = initial state) at which to keep ``sample(window)``.
    sample: map of the (n, m+1, d) window batch to an array; default keeps
        the window itself.
    integrate_at: steps at which to keep the running integral.
    integrand: map of the window batch to per-trajectory values; it is
        evaluated at every step and integrated by the trapezoid rule with
        spacing ``step``.  Required when ``integrate_at`` is non-empty.

    Returns
    -------
    (samples, integrals): ``samples[i]`` is a copy of ``sample(window)`` at
    step ``sample_at[i]``, stacked along a new leading axis (an empty array
    when nothing is sampled); ``integrals[i]`` is the integral from step 0
    to step ``integrate_at[i]`` (None without an integrand).

    Raises
    ------
    ValueError: a requested step outside ``[0, n_steps]``, or
        ``integrate_at`` without an integrand.
    NumericBlowupError: as for :func:`step_windows`.
    """
    sample_at = [int(k) for k in sample_at]
    integrate_at = [int(k) for k in integrate_at]
    if any(not 0 <= k <= n_steps for k in sample_at + integrate_at):
        raise ValueError(f"recorded steps must lie in [0, {n_steps}]")
    if integrate_at and integrand is None:
        raise ValueError("integrate_at needs an integrand")
    sample_rows: dict[int, list[int]] = {}
    for i, k in enumerate(sample_at):
        sample_rows.setdefault(k, []).append(i)
    integral_rows: dict[int, list[int]] = {}
    for i, k in enumerate(integrate_at):
        integral_rows.setdefault(k, []).append(i)

    samples = integrals = partial = prev = panel = None
    # step_windows is looked up as a module global on each call, so a wrapper
    # installed on this module sees every step
    for j, window in step_windows(
        model, initial_values, n_steps, step, rng, shared_noise=shared_noise
    ):
        if integrand is not None:
            vals = integrand(window)  # may alias the ring buffer
            if prev is None:
                prev = np.array(vals, dtype=float)
                partial, panel = np.zeros(prev.shape), np.empty(prev.shape)
                integrals = np.empty((len(integrate_at),) + prev.shape)
            else:
                # partial += 0.5 * (prev + vals) * step, in that order, in place
                np.add(prev, vals, out=panel)
                panel *= 0.5
                panel *= step
                partial += panel
                prev[...] = vals
            for i in integral_rows.get(j, ()):
                integrals[i] = partial
        if j in sample_rows:
            value = window if sample is None else sample(window)
            if samples is None:
                samples = np.empty((len(sample_at),) + np.shape(value))
            for i in sample_rows[j]:
                samples[i] = value
    return (np.empty(0) if samples is None else samples), integrals


def simulate(
    model: ModelSpec,
    initial: Segment,
    horizon: float,
    step: float,
    rng: RngStream,
) -> Trajectory:
    """Integrate one trajectory of the model by Euler-Maruyama.

    Parameters
    ----------
    initial: starting segment; must match the model's dim and delay, and its
        grid step must equal ``step``.
    horizon: final time T >= 0, a whole number of steps (:func:`grid_steps`).
    rng: the stream that owns every Gaussian increment of this trajectory.

    Returns
    -------
    Trajectory with ``(horizon + delay)/step + 1`` states, the first ``m+1``
    of which are the initial segment.

    Raises
    ------
    NumericBlowupError: on the first non-finite drift/diffusion/state value.
    """
    if initial.dim != model.dim:
        raise ShapeError(f"initial segment dim {initial.dim} != model dim {model.dim}")
    if abs(initial.delay - model.delay) > _GRID_RTOL * max(1.0, model.delay):
        raise ShapeError("initial segment delay differs from the model's")
    if abs(initial.step - step) > _GRID_RTOL * max(1.0, step):
        raise ShapeError("initial segment grid step differs from the integration step")
    n_steps = grid_steps(horizon, step, "horizon")
    ends, _ = record(
        model, initial.values[None], n_steps, step, rng,
        sample_at=range(n_steps + 1), sample=lambda window: window[0, -1],
    )
    states = np.concatenate([initial.values[:-1], ends])
    return Trajectory(model, step, n_steps * step, states, rng)
