"""Segment-valued states, path-dependent models, and the Euler-Maruyama integrator.

The state of a path-dependent SDE is a *segment*: the recent history of the
solution over a window of fixed length ``delay``, discretized on a uniform
grid of spacing ``step`` (``delay/step`` must be an integer so the oldest
history point lands exactly on a node).  A model is a drift ``segment -> R^d``
and a diffusion ``segment -> R^{d x d}``, each written in one form that
acts on a whole batch of segments, together with the
dissipativity/ellipticity constants the model claims to satisfy.

Simulation uses the explicit Euler-Maruyama scheme

    X(t + dt) = X(t) + drift(X_t) * dt + diffusion(X_t) @ (sqrt(dt) * Z)

where ``X_t`` is the current grid segment and ``Z`` is a standard normal
vector.  The integrator is vectorized over independent trajectories: the
coefficients are evaluated on arrays of segments, which is what makes the
statistical estimators in the rest of the package affordable.  Batched
arrays of segments always have shape ``(n, m+1, d)``: batch index, then time
node (oldest first), then coordinate.

The Euler loop lives in :func:`step_windows`, the one driver every run
steps through: it yields each new window batch as a view of a recycled ring
buffer, which owns the batch from the first yield on.  Its ``pairing``
makes the batch two equal halves that draw one set of Gaussian increments:
``"shared"`` drives both halves with the same normals, the synchronous
coupling of two ensembles, and ``"antithetic"`` drives the second half with
their negation, so each path has a mirror of the same law (antithetic
variates).  :func:`record`
steps a batch and returns copies of the windows (or of an observable of
them) at chosen steps, plus running trapezoid integrals of an observable;
consumers that reduce each window as it comes, and so hold one at a time,
read :func:`step_windows` directly.

A single one-dimensional path runs in :func:`_scalar_blocks`, a block
producer on Python floats: it fills the ring a block of steps at a time,
with the batched loop's operation order, so it is bit-identical to the
batched loop at width 1 and several times faster.  It serves models whose
drift is written as elementwise ``drift_ends`` and whose diffusion is a
constant ``sigma`` or ``diffusion_ends``; every other single path takes the
batched loop.  :func:`step_windows` hands its blocks out a step at a time,
and :func:`record` without an integrand reads them directly, taking windows
at its sampled steps only.  :func:`_noise_map` picks a batch's diffusion
form once per run.

Two grid rules live here, each in one place.  :func:`grid_steps` is the one
time-grid rule: every time a pipeline steps to (a horizon, a checkpoint, a
quadrature end, the unit time) must be a whole number of steps, and it
returns that number or raises naming the offending input.  The segment-grid
rule, that ``delay/step`` is whole, fixes every segment's node layout and
lives in ``_history_nodes``; :func:`step_windows` holds every batch to it
once per call, whatever the caller.
"""

from __future__ import annotations

import math
import mmap
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import NumericBlowupError, ShapeError
from .rng import RngStream

__all__ = [
    "Segment",
    "ModelSpec",
    "Trajectory",
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
# Sign of the normals each half of a batch takes, per pairing: one half
# draws them all, or two halves share one draw, copied or negated.
_PAIRINGS = {"none": (1.0,), "shared": (1.0, 1.0), "antithetic": (1.0, -1.0)}


def grid_steps(t: float, step: float, what: str) -> int:
    """Number of steps ``step`` in the time ``t``: the one time-grid rule.

    ``t`` must be 0 or a positive whole number of steps, within
    ``1e-6 * max(1, |t|)``; otherwise (a non-finite ``t`` too) raise
    ValueError naming ``what``.
    """
    ratio = t / step
    k = int(round(ratio)) if math.isfinite(ratio) else 0  # then t != 0 fails below
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
    row is the current state.
    """

    values: np.ndarray
    delay: float
    step: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
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


def constant_segment(value, delay: float, step: float, dim: Optional[int] = None) -> Segment:
    """Segment frozen at a single state (scalar or length-d vector)."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if dim is not None and v.size == 1:
        v = np.full(dim, v[0])
    m = _history_nodes(delay, step)
    return Segment(np.tile(v, (m + 1, 1)), delay, step)


def batch_sup_norms(values: np.ndarray) -> np.ndarray:
    """Uniform norms of a batch of segment value arrays, shape (n, m+1, d) -> (n,)."""
    return np.sqrt((values**2).sum(axis=2)).max(axis=1)


@dataclass(frozen=True, kw_only=True, eq=False)
class ModelSpec:
    """Coefficients of a path-dependent SDE plus its declared constants.

    Every field is keyword-only.  Each coefficient has one source: the drift
    is ``drift_ends`` or ``drift_batch``, the diffusion ``sigma`` or
    ``diffusion_ends`` and/or ``diffusion_batch``.  Equality is identity, as
    the coefficients are callables.

    Parameters
    ----------
    dim, delay: state dimension and history-window length.
    drift_ends: drift written as an elementwise function
        ``drift_ends(now, oldest)`` of the window's current node and its
        oldest node.  The same expression must serve Python floats and numpy
        arrays and give bit for bit the same value on both: the width-1
        integrator calls it on floats, and ``drift_batch``, when not given,
        is derived from it on arrays.  An arithmetic error raised on floats
        counts as a non-finite drift.
    drift_batch: drift acting on an ``(n, m+1, d)`` array of segments and
        returning ``(n, d)``; needed when ``drift_ends`` is absent.
    sigma: a constant diffusion, a scalar (read as ``sigma * I``) or a
        ``(dim, dim)`` matrix.  A ``(1, 1)`` matrix is stored as its scalar,
        and a scalar keeps a width-1 path with ``drift_ends`` on floats.
    diffusion_ends: diagonal diffusion written the same way, as an
        elementwise ``diffusion_ends(now, oldest)`` returning the diagonal,
        under the same bit-for-bit contract and arithmetic-error rule.
        ``diffusion_batch`` (diagonal convention), when not given, is derived
        from it; with ``drift_ends`` the width-1 integrator stays on floats.
    diffusion_batch: diffusion acting on an ``(n, m+1, d)`` array of segments
        and returning ``(n, d, d)``, or ``(n, d)`` read as diagonal.
    lambda1, lambda2: declared dissipativity constants.  Construction checks
        the side condition ``lambda1 > lambda2 * exp(lambda1 * delay)``.
    sigma_bound, sigma_inv_bound: declared uniform operator-norm bounds on the
        diffusion and its inverse.  ``sigma_inv_bound=None`` marks a model
        that does not claim invertible noise (e.g. deterministic test
        dynamics); ellipticity checks on such a model fail fast.
    """

    dim: int
    delay: float
    lambda1: float
    lambda2: float
    sigma_bound: float
    sigma_inv_bound: Optional[float]
    drift_ends: Optional[Callable] = None
    drift_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sigma: Optional[float | np.ndarray] = None
    diffusion_ends: Optional[Callable] = None
    diffusion_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not (self.delay > 0):
            raise ValueError("delay must be positive")
        if not (0 < self.lambda1 < math.inf):
            raise ValueError("lambda1 must be positive and finite")
        if not (self.lambda2 >= 0):
            raise ValueError("lambda2 must be non-negative")
        margin = self.side_margin
        if not (margin > 0):
            raise ValueError(
                f"dissipativity side condition violated: lambda1={self.lambda1} must exceed "
                f"lambda2*exp(lambda1*delay)={self.lambda1 - margin:.6g}"
            )
        ends = self.drift_ends
        if ends is not None:
            if self.drift_batch is None:
                object.__setattr__(
                    self, "drift_batch", lambda segs: ends(segs[:, -1, :], segs[:, 0, :])
                )
        elif self.drift_batch is None:
            raise ValueError("a model needs drift_ends or drift_batch")
        sig_ends = self.diffusion_ends
        if self.sigma is not None:
            if sig_ends is not None or self.diffusion_batch is not None:
                raise ValueError("a constant sigma excludes diffusion_ends and diffusion_batch")
            object.__setattr__(self, "sigma", self._constant_sigma(self.sigma))
        elif sig_ends is not None:
            if self.diffusion_batch is None:
                object.__setattr__(
                    self, "diffusion_batch", lambda segs: sig_ends(segs[:, -1, :], segs[:, 0, :])
                )
        elif self.diffusion_batch is None:
            raise ValueError("a model needs sigma, diffusion_ends or diffusion_batch")
        if not (0 <= self.sigma_bound < math.inf):
            raise ValueError("sigma_bound must be finite and non-negative")
        if self.sigma_inv_bound is not None and not (0 < self.sigma_inv_bound < math.inf):
            raise ValueError("sigma_inv_bound must be finite and positive when declared")

    def _constant_sigma(self, sigma) -> float | np.ndarray:
        """``sigma`` as a float, or as a read-only (dim, dim) float matrix."""
        sig = np.array(sigma, dtype=float)
        if sig.shape not in ((), (self.dim, self.dim)):
            raise ValueError(
                f"sigma must be a scalar or a ({self.dim}, {self.dim}) matrix, got shape {sig.shape}"
            )
        if not np.isfinite(sig).all():
            raise ValueError("sigma must be finite")
        if sig.size == 1:
            return float(sig.reshape(()))
        sig.setflags(write=False)
        return sig

    @property
    def side_margin(self) -> float:
        """Slack ``lambda1 - lambda2 * exp(lambda1 * delay)`` of the side condition.

        Exactly ``lambda1`` when ``lambda2`` is 0, and ``-inf`` when the
        exponential overflows.
        """
        if self.lambda2 == 0:
            return self.lambda1
        try:
            return self.lambda1 - self.lambda2 * math.exp(self.lambda1 * self.delay)
        except OverflowError:
            return -math.inf


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


def _noise_map(model: ModelSpec):
    """The run's noise map ``noise(segs, z, out)``.

    It takes an (n, m+1, d) window batch and scaled normals ``z`` (n, d) and
    returns the (n, d) noise term, written into the scratch array ``out``
    where its form is elementwise: a constant scalar ``sigma``, a constant
    matrix, or ``diffusion_batch`` (diagonal or full).
    """
    sig = model.sigma
    if isinstance(sig, float):
        return lambda segs, z, out: np.multiply(sig, z, out=out)
    if sig is not None:
        return lambda segs, z, out: z @ sig.T

    def noise(segs, z, out):
        s = np.asarray(model.diffusion_batch(segs))
        if s.ndim == 2:  # diagonal convention
            return np.multiply(s, z, out=out)
        return np.einsum("nij,nj->ni", s, z)

    return noise


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


def _step_count(n_steps) -> int:
    """``n_steps`` as a non-negative int (numpy integers too), else ValueError."""
    try:
        k = operator.index(n_steps)
    except TypeError:
        k = -1
    if k < 0:
        raise ValueError(f"n_steps must be a non-negative integer, got {n_steps!r}")
    return k


def _fill_ring(
    model: ModelSpec, initial_values: np.ndarray, n_steps: int, step: float, pairing: str
) -> tuple[np.ndarray, int]:
    """Check a batch against the model and copy it into a fresh ring buffer.

    Returns the time-major (rows, n, d) ring, whose first ``m+1`` rows hold
    the initial segments, and ``m``; raises as :func:`step_windows` does.
    """
    init = np.asarray(initial_values, dtype=float)
    if init.ndim != 3:
        raise ShapeError(f"initial segments must be a batch (n, m+1, d), got shape {init.shape}")
    n, nodes, d = init.shape
    m = nodes - 1
    if d != model.dim:
        raise ShapeError(f"initial segments have dim {d}, model has {model.dim}")
    want = _history_nodes(model.delay, step) + 1
    if nodes != want:
        raise ShapeError(
            f"initial segments have {nodes} nodes; delay {model.delay!r} at step {step!r} needs {want}"
        )
    if pairing not in _PAIRINGS:
        raise ValueError(f"pairing must be one of {sorted(_PAIRINGS)}, got {pairing!r}")
    if n % len(_PAIRINGS[pairing]):
        raise ShapeError(f"a {pairing} batch needs two equal halves, got width {n}")

    # Rows are grid times, so windows are contiguous views.  A single path's
    # ring stays short (the float kernel keeps one view per row); a wider one
    # holds about _RING_BYTES, never under a window's 2(m+1).
    cap = _SCALAR_ROWS if n * d == 1 else _RING_BYTES // (8 * n * d)
    rows = max(2 * (m + 1), min(cap, n_steps + m + 1))
    buf = _ring((rows + m + 1, n, d))
    buf[: m + 1] = init.transpose(1, 0, 2)
    if not np.isfinite(buf[: m + 1]).all():
        raise NumericBlowupError("non-finite initial segment", 0.0)
    return buf, m


def _on_floats(model: ModelSpec) -> bool:
    """Whether a single path of ``model`` runs in :func:`_scalar_blocks`."""
    return (
        model.dim == 1
        and model.drift_ends is not None
        and (isinstance(model.sigma, float) or model.diffusion_ends is not None)
    )


def step_windows(
    model: ModelSpec,
    initial_values: np.ndarray,
    n_steps: int,
    step: float,
    rng: RngStream,
    pairing: str = "none",
) -> Iterator[tuple[int, np.ndarray]]:
    """Drive a batch of trajectories, yielding each new segment window.

    Parameters
    ----------
    initial_values: array (n, m+1, d) of initial segments.
    n_steps: number of Euler-Maruyama steps to take, a non-negative integer.
    rng: stream owning every draw of this batch.
    pairing: ``"none"``, every trajectory draws its own normals; otherwise
        the batch is two equal halves and trajectory ``i`` of the second half
        takes, at every step, the normal draw of trajectory ``i`` of the
        first: the same draw (``"shared"``) or its negation
        (``"antithetic"``).  Either draws half the normals.

    Yields
    ------
    (j, windows): step index ``j`` (0 = initial state, time ``j*step``) and a
    read-only view of the current batch of segments, shape (n, m+1, d).
    Consumers must not hold references across iterations: the buffer is
    recycled.  The initial batch is copied into the buffer before the first
    yield and no reference to it is kept, so a caller that passes it
    without keeping one of its own frees it for the rest of the run.

    Raises
    ------
    ShapeError: initial values that are not an (n, m+1, d) batch, windows
        whose dim is not the model's, or whose node count is not
        ``delay/step + 1``; a pairing with an odd batch width.
    ValueError: ``n_steps`` is not a non-negative integer, ``step`` does
        not divide the model's delay, or an unknown ``pairing``.
    NumericBlowupError: the first time a state goes non-finite, with the
        time, after yielding every window before it.
    """
    n_steps = _step_count(n_steps)
    buf, m = _fill_ring(model, initial_values, n_steps, step, pairing)
    # the ring owns the batch from here: a caller that kept no reference
    # frees it while the run goes on
    del initial_values
    gen = rng.generator()
    _, n, d = buf.shape
    if n == 1 and _on_floats(model):
        for first, windows in _scalar_blocks(model, buf, m, n_steps, step, gen):
            yield from enumerate(windows, first)
        return
    drift_map, noise_map = model.drift_batch, _noise_map(model)
    head = m  # buffer row of the current state

    # narrow batches amortize the generator call over many steps; the draw
    # sequence is the same at any block length (values come off the stream
    # in order)
    halves = len(_PAIRINGS[pairing])
    nz = n // halves
    zbuf = np.empty((max(1, _ZBLOCK // max(1, nz * d)), nz, d))
    zoff = zbuf.shape[0]  # force a refill on first use
    # per-step scratch: scaled normals (both halves under a pairing), the
    # noise term and drift * step
    zs, noise_out, drift_step = np.empty((n, d)), np.empty((n, d)), np.empty((n, d))
    # a pairing is one broadcast multiply of the draw by each half's signed
    # sqrt(step), so no step branches on it (z * -sq is exactly -(z * sq));
    # one half keeps the cheaper scalar multiply
    sq = math.sqrt(step)
    scale, zs_halves = (sq, zs) if halves == 1 else (
        np.array(_PAIRINGS[pairing]).reshape(halves, 1, 1) * sq, zs.reshape(halves, nz, d)
    )

    ro = buf.view()  # read-only alias the yielded windows are sliced from
    ro.flags.writeable = False
    yield 0, ro[head - m : head + 1].transpose(1, 0, 2)

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
        np.multiply(zbuf[zoff], scale, out=zs_halves)
        zoff += 1
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
        yield j, ro[head - m : head + 1].transpose(1, 0, 2)


def _scalar_blocks(
    model: ModelSpec,
    buf: np.ndarray,
    m: int,
    n_steps: int,
    step: float,
    gen: np.random.Generator,
) -> Iterator[tuple[int, list[np.ndarray]]]:
    """Step a single one-dimensional path on Python floats, a block at a time.

    ``buf`` is the (rows, 1, 1) ring buffer of :func:`_fill_ring`.  Each
    yield is ``(first, windows)``: the read-only window views of the
    consecutive steps ``first, first + 1, ...``, precomputed, one per ring
    row.  The first block is the initial window alone.  A block ends at the
    ring's last row, at the end of the current draw of ``_ZBLOCK`` normals
    or at the last step, and the ring holds all of it when it is yielded.

    Every state is bit-identical to the batched loop at width 1: the
    normals come off the stream in the same blocks, numpy scales a draw at
    once to ``c*(z*sqrt(dt))`` (``z*sqrt(dt)`` with a ``diffusion_ends``),
    and the update keeps the batched operation order,
    ``x = (x + noise) + drift*dt``, with the drift ``drift_ends(now,
    oldest)`` and the diffusion the constant scalar ``sigma`` or
    ``float(diffusion_ends(now, oldest))``.  On a non-finite drift,
    diffusion or state the blocks stop at the steps before it, and the
    error follows them.
    """
    ends, c, sig_ends = model.drift_ends, model.sigma, model.diffusion_ends
    flat = buf.reshape(-1)
    views = [buf[h - m : h + 1].transpose(1, 0, 2) for h in range(m, flat.size)]
    for view in views:
        view.flags.writeable = False
    sq = math.sqrt(step)
    isfinite = math.isfinite
    head, done, zoff = m, 0, _ZBLOCK
    yield 0, views[:1]

    while done < n_steps:
        if head + 1 == flat.size:
            flat[: m + 1] = flat[head - m : head + 1]
            head = m
        if zoff == _ZBLOCK:
            z = gen.standard_normal(_ZBLOCK)
            z *= sq
            if sig_ends is None:
                z *= c
            noises = z.tolist()
            zoff = 0
        size = min(flat.size - 1 - head, _ZBLOCK - zoff, n_steps - done)
        known = flat[head - m : head + 1].tolist()
        x = known[-1]
        # the new states; the oldest node of a step more than m steps into
        # the block is one of them, read as it is appended
        new = []
        append = new.append
        fault = None
        if sig_ends is None:
            for noise, oldest in zip(noises[zoff : zoff + size], chain(known, new)):
                try:
                    drift = ends(x, oldest)
                except ArithmeticError:  # where numpy returns inf or nan
                    fault = "drift/diffusion produced non-finite output"
                    break
                x = (x + noise) + drift * step
                if not isfinite(x):
                    break
                append(x)
        else:
            for zsq, oldest in zip(noises[zoff : zoff + size], chain(known, new)):
                try:
                    # numpy ufuncs return numpy scalars; float() is exact
                    # and keeps x a Python float
                    drift = float(ends(x, oldest))
                    noise = float(sig_ends(x, oldest)) * zsq
                except ArithmeticError:
                    fault = "drift/diffusion produced non-finite output"
                    break
                x = (x + noise) + drift * step
                if not isfinite(x):
                    break
                append(x)
        count = len(new)
        if fault is None and count < size:  # the state went non-finite
            fault = (
                "state became non-finite" if isfinite(drift) and isfinite(noise)
                else "drift/diffusion produced non-finite output"
            )
        flat[head + 1 : head + 1 + count] = new
        yield done + 1, views[head + 1 - m : head + 1 - m + count]
        head += count
        done += count
        zoff += count
        if fault is not None:
            raise NumericBlowupError(fault, (done + 1) * step)


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
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Run one batch for ``n_steps`` steps and keep what the caller asks for.

    Parameters
    ----------
    initial_values, n_steps, step, rng: as for :func:`step_windows`.
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
    ValueError: ``n_steps`` is not a non-negative integer, a requested step
        lies outside ``[0, n_steps]``, or ``integrate_at`` has no integrand.
    NumericBlowupError: as for :func:`step_windows`.
    """
    n_steps = _step_count(n_steps)
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

    samples = integrals = None

    def keep(j: int, window: np.ndarray) -> None:
        nonlocal samples
        value = window if sample is None else sample(window)
        if samples is None:
            samples = np.empty((len(sample_at),) + np.shape(value))
        for i in sample_rows[j]:
            samples[i] = value

    if integrand is None and np.shape(initial_values)[:1] == (1,) and _on_floats(model):
        # a single path on floats: read the kernel's blocks and take windows
        # at the sampled steps only
        buf, m = _fill_ring(model, initial_values, n_steps, step, "none")
        todo = sorted(sample_rows, reverse=True)
        for first, windows in _scalar_blocks(model, buf, m, n_steps, step, rng.generator()):
            end = first + len(windows)
            while todo and todo[-1] < end:
                j = todo.pop()
                keep(j, windows[j - first])
        return (np.empty(0) if samples is None else samples), integrals

    partial = prev = panel = None
    # step_windows is looked up as a module global on each call, so a wrapper
    # installed on this module sees every step it drives
    for j, window in step_windows(model, initial_values, n_steps, step, rng):
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
            keep(j, window)
    return (np.empty(0) if samples is None else samples), integrals


def simulate(
    model: ModelSpec,
    initial: Segment,
    horizon: float,
    rng: RngStream,
) -> Trajectory:
    """Integrate one trajectory of the model by Euler-Maruyama on ``initial``'s grid.

    Parameters
    ----------
    initial: starting segment; its grid step is the integration step, and
        :func:`step_windows` checks it against the model's dim and delay.
    horizon: final time T >= 0, a whole number of steps (:func:`grid_steps`).
    rng: the stream that owns every Gaussian increment of this trajectory.

    Returns
    -------
    Trajectory with ``(horizon + delay)/step + 1`` states, the first ``m+1``
    of which are the initial segment.

    Raises
    ------
    ShapeError: as for :func:`step_windows`.
    NumericBlowupError: on the first non-finite drift/diffusion/state value.
    """
    step = initial.step
    n_steps = grid_steps(horizon, step, "horizon")
    ends, _ = record(
        model, initial.values[None], n_steps, step, rng,
        sample_at=range(n_steps + 1), sample=lambda window: window[0, -1],
    )
    states = np.concatenate([initial.values[:-1], ends])
    return Trajectory(model, step, n_steps * step, states, rng)
