"""System description, time grids, signals, and flow integration.

Everything here is immutable after construction and every operation is a
pure function of its inputs, so all of it is safe to call concurrently.

One time base: a run grid is a root `TimeGrid`, and every span a flow,
cost or Grammian integrates over is a subgrid of it, an index range with
the root's step h bit for bit and its node k at origin + k*h. An
InputSignal is staged once per (signal, root grid): its value at every
node and step midpoint, and its left limit at each breakpoint node. The
stagings live in one bounded, thread-safe, process-wide memo of read-only
arrays, and every span's stage inputs and node inputs are slices of its
root's staging. Input evaluators must therefore be pure functions of s.
An evaluator takes a column of m times, (m, 1), and returns the m input
rows, (m, n_u): a staging calls each piece once per sample set (nodes,
midpoints, breakpoint left limits) on the run of times it covers.

Integration is fixed-step classical RK4 on a uniform grid, stepped by
one loop, `rk4_flow`. The stage inputs of every step come from the
staging before the loop runs (u0 at the step's start node, um at its
midpoint, u1 at its end node, all from the piece active on the open
step), so piecewise inputs whose breakpoints sit on grid nodes do not
break the order of the scheme; breakpoints off the grid raise
GridMismatch. Process noise is sample-and-hold: one value per step,
constant across the four stages.

Tangents are not kernels of their own. `rk4_flow_stm` (Z(0) = I) and
`rk4_flow_sens` (Z(0) = 0, per-step forcing [w; vec F]) run `rk4_flow`
on the augmented state [x; vec Z] with f_aug = (f(x, u), dfdx(x, u) @ Z),
so states, state-transition matrices and the sensitivities to any number
of noise directions come out of one integration on the same RK4 stages.
The augmented state may be one row or a block of B rows, (B, n_x +
n_x*k), with the noise forcing shared by the rows or given per row.

A window candidate is a row block; only a reference is a single
trajectory. `flow` and `perturbed_flow` step one state through the
per-row f (reference flows, warm starts, simulations). `flow_windows`
and `flow_and_stm_windows` step m starts on each of W windows of one run
grid with one step count as one block: the ball samples and every
candidate's cost as plain flows, and, with STMs, the tangents of
`cost.window_tangents`, the one caller of `flow_and_stm_windows` besides
its one-row case `flow_and_stm`.
`perturbed_flow_and_sensitivities_rows` steps several process-noise
draws from one start as one block, and `_tangent_rows_on` steps a block
on from given states and tangents over one window (the non-uniform
audit's window, its center row restarted at Z = I). Blocks use the
optional row callbacks `f_rows`, `df_dx_rows` and `domain_guard_rows`,
or per-row fallbacks, and row b equals the single-row flow from its
start bit for bit. Every output and output Jacobian comes from
`outputs_rows` or `output_jacobians_rows`: one `h_rows` or `dh_dx_rows`
call (or per-row fallback) on all rows at all nodes.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import repeat
from numbers import Integral, Real
from sys import float_info
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainViolation, GridMismatch

Array = np.ndarray

_NODE_TOL = 1e-9
# Stagings held by the input memo, one per (signal, root grid). A
# certificate, solve or audit slices all its spans from the staging of its
# run grid, so two entries serve a signal in use and the one before it.
_MEMO_ENTRIES = 2
# State rows per finiteness and domain-guard check, so a check allocates
# no temporary the size of a whole batch of trajectories.
_GUARD_BLOCK = 256


def _require_step(h: float) -> None:
    """GridMismatch unless the step h is a finite positive number."""
    if not 0.0 < h < math.inf:
        raise GridMismatch(f"step must be finite and positive, got {h}")


def _step_count(t0: float, t1: float, h: float) -> int:
    """The number n >= 1 of steps h from t0 to t1, to within _NODE_TOL
    relative; GridMismatch unless h is a step that divides [t0, t1]."""
    _require_step(h)
    n = round((t1 - t0) / h) if math.isfinite(t1 - t0) else 0
    if n < 1 or abs(t0 + n * h - t1) > _NODE_TOL * max(1.0, abs(t1)):
        raise GridMismatch(f"step {h} does not divide interval [{t0}, {t1}]")
    return n


@dataclass(frozen=True)
class ControlSystem:
    """A controlled ODE x' = f(x, u) with output y = h(x, u).

    `df_dx` and `dh_dx` are the Jacobians of f and h in the state. The
    optional `domain_guard` marks states where h is defined; trajectories
    leaving the guarded region raise DomainViolation.

    Five optional row callbacks serve every row block: the batched flows,
    the guard checks and all outputs and output Jacobians (`outputs_rows`,
    `output_jacobians_rows`). `f_rows(X, u)` takes stacked states X of
    shape (B, n_x) and either one input row u, (n_u,), shared by all of
    them, or one input row per state, (B, n_u), and returns (B, n_x).
    `df_dx_rows`, `h_rows` and `dh_dx_rows` take the same arguments and
    return (B, n_x, n_x), (B, n_y) and (B, n_y, n_x). `domain_guard_rows(X)`
    returns a (B,) bool array. Each must equal its per-row callback on
    every row, bit for bit (for the guard, the same verdict), also when X
    is a strided view. A system that leaves them None gets a fallback that
    calls the per-row callback once per row. The per-row `f` itself steps
    only the reference flows (`flow`, `perturbed_flow`).
    """

    n_x: int
    n_u: int
    n_y: int
    f: Callable[[Array, Array], Array]
    h: Callable[[Array, Array], Array]
    df_dx: Callable[[Array, Array], Array]
    dh_dx: Callable[[Array, Array], Array]
    domain_guard: Optional[Callable[[Array], bool]] = None
    f_rows: Optional[Callable[[Array, Array], Array]] = None
    domain_guard_rows: Optional[Callable[[Array], Array]] = None
    df_dx_rows: Optional[Callable[[Array, Array], Array]] = None
    h_rows: Optional[Callable[[Array, Array], Array]] = None
    dh_dx_rows: Optional[Callable[[Array, Array], Array]] = None

    def __post_init__(self):
        require("count", n_x=self.n_x, n_u=self.n_u, n_y=self.n_y)

    def guard_ok(self, x: Array) -> bool:
        return self.domain_guard is None or bool(self.domain_guard(x))


def check_jacobians(sys: ControlSystem, points: Sequence[tuple[Array, Array]]) -> float:
    """Max deviation of df_dx/dh_dx from central differences of f/h, step 1e-6.

    Convenience check of the ControlSystem contract; returns the worst
    absolute entry error over the supplied (state, input) test points.
    """
    worst = 0.0
    for x, u in points:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        for fn, jac, dim in ((sys.f, sys.df_dx, sys.n_x), (sys.h, sys.dh_dx, sys.n_y)):
            fd = np.empty((dim, sys.n_x))
            for i in range(sys.n_x):
                e = np.zeros(sys.n_x)
                e[i] = 1e-6
                fd[:, i] = (np.asarray(fn(x + e, u)) - np.asarray(fn(x - e, u))) / 2e-6
            worst = max(worst, float(np.max(np.abs(fd - np.asarray(jac(x, u))))))
    return worst


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with n_steps intervals on [t_start, t_end].

    A grid made directly is a root grid: its step is h = (t_end - t_start)
    / n_steps and its node k is t_start + k*h. `subgrid` cuts index ranges
    from the root: a subgrid keeps the root (`root`) and the root index of
    its first node (`offset`), has the root's h bit for bit, and its node k
    is the root's node offset + k. So every span of one run grid lies on one
    time base: a flow over [a, b] equals the first rows of a flow over
    [a, c] bit for bit, and every span's inputs are slices of one staging
    of the root (`InputSignal`).
    """

    t_start: float
    t_end: float
    n_steps: int
    root: Optional["TimeGrid"] = field(default=None, repr=False)
    offset: int = 0

    def __post_init__(self):
        if not isinstance(self.n_steps, Integral) or self.n_steps < 1:
            raise GridMismatch(f"grid needs a whole step count >= 1, got {self.n_steps!r}")
        if not -math.inf < self.t_start < self.t_end < math.inf:
            raise GridMismatch(f"grid [{self.t_start}, {self.t_end}] is not finite "
                               "and nonempty")

    @property
    def base(self) -> "TimeGrid":
        """The root grid this grid is an index range of (itself for a root)."""
        return self if self.root is None else self.root

    @property
    def h(self) -> float:
        if self.root is not None:
            return self.root.h
        return (self.t_end - self.t_start) / self.n_steps

    @property
    def nodes(self) -> Array:
        k = np.arange(self.offset, self.offset + self.n_steps + 1)
        return self.base.t_start + self.h * k

    @classmethod
    def with_step(cls, t_start: float, t_end: float, h: float) -> "TimeGrid":
        return cls(t_start, t_end, _step_count(t_start, t_end, h))

    def index_of(self, t: float) -> int:
        if not math.isfinite(t):
            raise GridMismatch(f"time {t} is not a node of {self}")
        origin, h = self.base.t_start, self.h
        k = round((t - origin) / h)
        i = k - self.offset
        if i < 0 or i > self.n_steps or abs(origin + k * h - t) > _NODE_TOL * max(1.0, abs(t)):
            raise GridMismatch(f"time {t} is not a node of {self}")
        return i

    def subgrid(self, t0: float, t1: float) -> "TimeGrid":
        """The nodes of this grid from t0 to t1, as an index range of the root."""
        i0, i1 = self.index_of(t0), self.index_of(t1)
        if i1 <= i0:
            raise GridMismatch("empty subgrid")
        base, h = self.base, self.h
        k0, k1 = self.offset + i0, self.offset + i1
        return TimeGrid(base.t_start + k0 * h, base.t_start + k1 * h, i1 - i0, base, k0)


@dataclass(frozen=True)
class InputSignal:
    """Piecewise-defined input trajectory, right-continuous at breakpoints.

    `pieces` is an ordered tuple of (start_time, evaluator); the first
    start must be <= 0 so the signal is defined for every s >= 0. `bound`
    is an optional sup-norm bound checked on every evaluated sample.

    An evaluator takes a float column of m times, (m, 1), and returns the
    input at each of them as one row, (m, n_u); any other shape raises
    DimensionMismatch naming the piece. A scalar-style evaluator, such as
    `np.array([f(s), g(s)])`, returns (n_u, m, 1) and is rejected, so
    times are never silently taken for input components.

    Evaluators must be pure functions of s. The signal is staged once per
    root time base (origin, h, N): the value at every node and at every
    step midpoint, and the left limit at each breakpoint node, held as
    read-only arrays in one bounded, thread-safe, process-wide memo keyed
    on the signal and the root. A staging calls each piece once per
    sample set, on the run of times the piece covers. `stage_values` and
    `at_nodes` serve every span of that root as slices of its staging. A
    sample above the bound raises DomainViolation for every span that uses
    it, on every call, and for no other span.
    """

    pieces: tuple[tuple[float, Callable[[Array], Array]], ...]
    bound: Optional[float] = None

    def __post_init__(self):
        # The memo keys on the signal, so the pieces must be hashable.
        object.__setattr__(self, "pieces", tuple((s, ev) for s, ev in self.pieces))
        if not self.pieces:
            raise ValueError("input signal needs at least one piece")
        starts = [s for s, _ in self.pieces]
        if starts != sorted(starts):
            raise ValueError("piece start times must be increasing")
        if starts[0] > 0.0:
            raise ValueError("first piece must start at or before time 0")

    @classmethod
    def from_callable(cls, fn: Callable[[Array], Array],
                      bound: Optional[float] = None) -> "InputSignal":
        return cls(pieces=((0.0, fn),), bound=bound)

    @classmethod
    def constant(cls, value) -> "InputSignal":
        v = np.array(value, dtype=float)
        return cls(pieces=((0.0, lambda s: np.broadcast_to(v, (len(s),) + v.shape)),),
                   bound=float(np.linalg.norm(v)))

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(s for s, _ in self.pieces[1:])

    def _piece_index(self, times: Sequence[float]) -> Array:
        """Index of the piece active at each time (the last piece starting
        at or before it, up to _NODE_TOL; the first piece before any)."""
        starts = np.array([s for s, _ in self.pieces])
        idx = np.searchsorted(starts, np.asarray(times) + _NODE_TOL, side="right") - 1
        return np.maximum(idx, 0)

    def _evaluate(self, p: int, times: Array, width: Optional[int]) -> Array:
        """Piece p's evaluator on the column of times, as a float array of
        one row per time, `width` columns when given; DimensionMismatch
        otherwise."""
        start, ev = self.pieces[p]
        v = np.asarray(ev(times), dtype=float)
        m = times.shape[0]
        if v.ndim != 2 or v.shape[0] != m or (width is not None and v.shape[1] != width):
            expected = f"({m}, {'n_u' if width is None else width})"
            raise DimensionMismatch(f"input piece from s={start} returned shape "
                                    f"{v.shape} for {m} times, expected {expected}")
        return v

    def _exceeds(self, v: Array) -> bool:
        return self.bound is not None and np.linalg.norm(v) > self.bound + 1e-12

    def at(self, s: float) -> Array:
        """Right-continuous evaluation at time s."""
        p = int(self._piece_index([s])[0])
        v = self._evaluate(p, np.array([[s]], dtype=float), None)[0]
        if self._exceeds(v):
            raise DomainViolation(f"input sample at s={s} exceeds declared bound "
                                  f"{self.bound}")
        return v

    def _samples(self, pieces: Array, times: Array,
                 width: Optional[int] = None) -> tuple[Array, Array]:
        """The samples of the pieces at the times, one evaluator call per
        run of times on one piece, stacked read-only, and which of them
        exceed the bound as `at` decides it. Norms of all rows at once are
        within 2 m eps (m entries a row) of the per-sample norms, so only
        rows that close to the limit are checked one by one."""
        cuts = [0] + (np.flatnonzero(np.diff(pieces)) + 1).tolist() + [len(times)]
        column = times.reshape(-1, 1)
        out = None
        for a, b in zip(cuts, cuts[1:]):
            v = self._evaluate(int(pieces[a]), column[a:b], width)
            if out is None:
                width = v.shape[1]
                out = np.empty((len(times), width))
            out[a:b] = v
        out.flags.writeable = False
        over = np.zeros(len(times), dtype=bool)
        if self.bound is not None:
            norms = np.sqrt(np.einsum("ij,ij->i", out, out))
            margin = 4.0 * out.shape[1] * np.finfo(float).eps
            for i in np.flatnonzero(~(norms <= (self.bound + 1e-12) * (1.0 - margin))):
                over[i] = self._exceeds(out[i])
        return out, over

    def at_nodes(self, grid: TimeGrid) -> Array:
        """Right-continuous values at every grid node: a read-only slice of
        the staging of the grid's root."""
        base, i, m = grid.base, grid.offset, grid.n_steps + 1
        nodes, _, _, over = _staging(self, base.t_start, base.h, base.n_steps)
        _check_span(over, 0, i, m, self.bound)
        return nodes[i:i + m]

    def stage_values(self, t0: float, h: float, n: int,
                     grid: Optional[TimeGrid] = None) -> tuple[Array, Array, Array]:
        """Per-step RK4 stage inputs of the n steps of size h from t0, as
        read-only slices of one staging: u0 at each step's start node, um
        at its midpoint, u1 at its end node or, at a breakpoint node, the
        left limit, so RK4 keeps its order when breakpoints sit on nodes.

        `grid` is the TimeGrid whose span (t0, h, n) is, sliced from its
        root's staging; without it the span is a root of its own.
        """
        require("count", n=n)
        i, root = 0, (t0, h, n)
        if grid is not None:
            if (t0, h, n) != (grid.t_start, grid.h, grid.n_steps):
                raise GridMismatch(f"span ({t0}, {h}, {n}) is not the span of {grid}")
            i, root = grid.offset, (grid.base.t_start, h, grid.base.n_steps)
        nodes, mids, ends, over = _staging(self, *root)
        _check_span(over, 1, i, n, self.bound)
        return nodes[i:i + n], mids[i:i + n], ends[i:i + n]

    def check_breakpoints_on(self, grid: TimeGrid) -> None:
        for b in self.breakpoints:
            if grid.t_start - _NODE_TOL < b < grid.t_end + _NODE_TOL:
                grid.index_of(b)  # raises GridMismatch if off-grid


def _stage(u: InputSignal, origin: float, h: float, n: int) -> tuple:
    """u on the root time base of n steps of size h from origin, as
    (nodes, mids, ends, over): the right-continuous value at each node k
    (origin + k*h) and at each step midpoint, and each step's end input
    u1, the next node's value or, at a breakpoint node, the left limit.
    Read-only arrays of 2n + 1 samples plus one per breakpoint node, from
    one evaluator call per piece and sample set.

    Samples above the bound are recorded, not raised, so that exactly the
    spans that use one raise, every time they are served: `over` is None,
    or the time of each node's offending sample and of each step's first
    one (u0, um, u1), NaN where there is none.
    """
    times = origin + h * np.arange(n + 1)
    mids = times[:-1] + 0.5 * h
    at_node, at_mid = u._piece_index(times), u._piece_index(mids)
    nodes, over_node = u._samples(at_node, times)
    width = nodes.shape[1]
    mid_values, over_mid = u._samples(at_mid, mids, width)
    ends, over_end = nodes[1:], over_node[1:]
    breaks = np.flatnonzero(at_node[1:] != at_mid)  # steps ending on a breakpoint
    if breaks.size:
        lefts, over_left = u._samples(at_mid[breaks], times[breaks + 1], width)
        ends, over_end = np.array(ends), over_end.copy()
        ends[breaks], over_end[breaks] = lefts, over_left
        ends.flags.writeable = False
    over = None
    if over_node.any() or over_mid.any() or over_end.any():
        over = (np.where(over_node, times, np.nan),
                np.select([over_node[:-1], over_mid, over_end],
                          [times[:-1], mids, times[1:]], np.nan))
    return nodes, mid_values, ends, over


_STAGINGS: "OrderedDict[tuple, tuple]" = OrderedDict()
_STAGINGS_LOCK = threading.Lock()


def _staging(u: InputSignal, origin: float, h: float, n: int) -> tuple:
    """`_stage` of u on (origin, h, n), from the memo when it holds it."""
    key = (u, origin, h, n)
    with _STAGINGS_LOCK:
        staging = _STAGINGS.get(key)
        if staging is not None:
            _STAGINGS.move_to_end(key)
            return staging
    staging = _stage(u, origin, h, n)
    with _STAGINGS_LOCK:
        staging = _STAGINGS.setdefault(key, staging)
        _STAGINGS.move_to_end(key)
        while len(_STAGINGS) > _MEMO_ENTRIES:
            _STAGINGS.popitem(last=False)
    return staging


def _check_span(over: Optional[tuple], which: int, i0: int, count: int,
                bound: Optional[float]) -> None:
    """DomainViolation if one of the nodes (which = 0) or steps (1) i0 ..
    i0 + count - 1 of a staging uses a sample above the bound."""
    if over is not None:
        hits = over[which][i0:i0 + count]
        hits = hits[~np.isnan(hits)]
        if hits.size:
            raise DomainViolation(f"input sample at s={float(hits[0])} exceeds "
                                  f"declared bound {bound}")


@dataclass(frozen=True)
class SampledSignal:
    """Sample-and-hold signal: values[i] holds on [t0 + i*h, t0 + (i+1)*h).

    The value at the final time t0 + n*h is the last sample's value.
    """

    t0: float
    h: float
    values: Array  # (n_samples, dim)

    def __post_init__(self):
        _require_step(self.h)
        if not math.isfinite(self.t0):
            raise GridMismatch(f"sample-and-hold start must be finite, got {self.t0}")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("values must be a (n_samples, dim) array")
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, value, t0: float, t1: float, h: float) -> "SampledSignal":
        """value held on the n steps h from t0 to t1; GridMismatch unless h
        divides [t0, t1] (as in `TimeGrid.with_step`)."""
        n = _step_count(t0, t1, h)
        return cls(t0, h, np.tile(np.asarray(value, dtype=float), (n, 1)))

    @classmethod
    def zero(cls, dim: int, t0: float, t1: float, h: float) -> "SampledSignal":
        return cls.constant(np.zeros(dim), t0, t1, h)

    @classmethod
    def seeded_uniform(cls, rng: np.random.Generator, t0: float, h: float, n: int,
                       dim: int, amplitude: float) -> "SampledSignal":
        """n + 1 samples from t0 of norm at most amplitude: directions from
        rng.standard_normal((n+1, dim)), then magnitudes from rng.uniform."""
        d = rng.standard_normal((n + 1, dim))
        nrm = np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-300)
        mag = amplitude * rng.uniform(size=(n + 1, 1))
        return cls(t0, h, (mag / nrm) * d)

    @property
    def t_end(self) -> float:
        return self.t0 + self.h * self.values.shape[0]

    @property
    def sup_norm(self) -> float:
        if self.values.shape[0] == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.values, axis=1)))

    def sample_index(self, s: float) -> int:
        i = int(np.floor((s - self.t0) / self.h + _NODE_TOL))
        return min(max(i, 0), self.values.shape[0] - 1)

    def at(self, s: float) -> Array:
        return self.values[self.sample_index(s)]

    def at_nodes(self, grid: TimeGrid) -> Array:
        """`step_values` on the steps of grid (aligned with the samples and
        covered by them, or GridMismatch), then the value at its last node,
        which at the final time t0 + n*h is the last sample's."""
        steps = self.step_values(grid.t_start, grid.h, grid.n_steps)
        return np.concatenate([steps, self.at(grid.t_end)[None]])

    def step_values(self, t0: float, h: float, n: int) -> Array:
        """One held value per integration step (grids must be aligned)."""
        if abs(self.h - h) > _NODE_TOL:
            raise GridMismatch("sample-and-hold step differs from grid step")
        off = (t0 - self.t0) / h
        i0 = round(off)
        if abs(off - i0) > _NODE_TOL:
            raise GridMismatch("sample-and-hold grid is not aligned to the integration grid")
        if i0 < 0 or i0 + n > self.values.shape[0]:
            raise GridMismatch("sample-and-hold signal does not cover the requested span")
        return self.values[i0:i0 + n]

    def __add__(self, other: "SampledSignal") -> "SampledSignal":
        if abs(self.t0 - other.t0) > _NODE_TOL or abs(self.h - other.h) > _NODE_TOL \
                or self.values.shape != other.values.shape:
            raise GridMismatch("cannot add signals on different grids")
        return SampledSignal(self.t0, self.h, self.values + other.values)

    def scaled(self, a: float) -> "SampledSignal":
        return SampledSignal(self.t0, self.h, a * self.values)


def require_width(signal: Optional[SampledSignal], dim: int, name: str) -> None:
    """DimensionMismatch unless `signal` is None or has `dim` columns."""
    if signal is not None and signal.values.shape[1] != dim:
        raise DimensionMismatch(
            f"{name} has {signal.values.shape[1]} columns, expected {dim}")


@dataclass(frozen=True)
class NoiseSignals:
    """Measurement noise v on the estimation window and process noise w on [0, t].

    Either component may be None (interpreted as zero). `norm` is the
    max of their per-sample Euclidean sup-norms.
    """

    v: Optional[SampledSignal] = None
    w: Optional[SampledSignal] = None

    @property
    def norm(self) -> float:
        n = 0.0
        if self.v is not None:
            n = max(n, self.v.sup_norm)
        if self.w is not None:
            n = max(n, self.w.sup_norm)
        return n

    @property
    def is_zero(self) -> bool:
        return (self.v is None or not np.any(self.v.values)) and \
               (self.w is None or not np.any(self.w.values))


ZERO_NOISE = NoiseSignals()


def rk4_flow(f, x0: Array, h: float, u0: Array, um: Array, u1: Array,
             w: Optional[Array] = None) -> Array:
    """Integrate x' = f(x, u) + w over n steps of size h.

    u0, um and u1 hold the stage inputs of each step, read as u0[i] at
    step i: one input row per step, (n, n_u), or for a block one row per
    step and per block row, (n, B, n_u). x0 is one state (n_x,) or a block
    of stacked states (B, n_x); for a block, `f` takes the stacked rows and
    one input row shared by all of them, or one input row per state, and
    returns (B, n_x). `w` is None or holds the process noise of each step,
    read as w[i] at step i: one row per step, (n, n_x), which a block
    shares across its rows, or one row per step and per block row,
    (n, B, n_x). Each of these may be a per-step view (`_StepRows`) that
    builds step i when it is read; each is read once per step. Every
    operation between the f calls is elementwise, so row b of the result
    equals, bit for bit, the flow of x0[b] alone under its own inputs and
    noise when f's rows equal its per-row results. Returns the states at
    all n+1 nodes, (n+1,) + x0.shape, with states[0] == x0 exactly.
    """
    n = len(u0)
    xs = np.empty((n + 1,) + x0.shape)
    xs[0] = x0
    x = np.array(x0, dtype=float)
    for i in range(n):
        umi = um[i]
        if w is None:
            k1 = f(x, u0[i])
            k2 = f(x + (0.5 * h) * k1, umi)
            k3 = f(x + (0.5 * h) * k2, umi)
            k4 = f(x + h * k3, u1[i])
        else:
            wi = w[i]
            k1 = f(x, u0[i]) + wi
            k2 = f(x + (0.5 * h) * k1, umi) + wi
            k3 = f(x + (0.5 * h) * k2, umi) + wi
            k4 = f(x + h * k3, u1[i]) + wi
        x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        xs[i + 1] = x
    return xs


def _rk4_tangents(f, dfdx, x0: Array, z0: Array, h: float, u0: Array,
                  um: Array, u1: Array,
                  forcing: Optional[Array] = None) -> tuple[Array, Array]:
    """Co-integrate x' = f(x, u) and Z' = dfdx(x, u) @ Z, Z of shape
    (n_x, k), from (x0, z0): `rk4_flow` on the augmented state [x; vec Z].

    x0 is one state (n_x,) or a block (B, n_x); z0 is (n_x, k), shared by
    every row of a block, or one per row, (B, n_x, k). For a block, f and
    dfdx take stacked rows and return (B, n_x) and (B, n_x, n_x).
    `forcing` is None or [w_i; vec F_i] per step, read as forcing[i]:
    (n_x + n_x*k,) or, per row, (B, n_x + n_x*k), added to [x'; vec Z'].
    Returns (states, zs) of shapes (n+1,) + x0.shape and (n+1,)
    + x0.shape[:-1] + (n_x, k), with zs[0] == z0 exactly.
    """
    nx, k = z0.shape[-2:]
    rows = x0.shape[:-1]
    xz0 = np.empty(rows + (nx + nx * k,))
    xz0[..., :nx] = x0
    xz0[..., nx:] = z0.reshape(z0.shape[:-2] + (nx * k,))

    def f_aug(xz: Array, ui: Array) -> Array:
        x = xz[..., :nx]
        out = np.empty(xz.shape)
        out[..., :nx] = f(x, ui)
        np.matmul(dfdx(x, ui), xz[..., nx:].reshape(rows + (nx, k)),
                  out=out[..., nx:].reshape(rows + (nx, k)))
        return out

    xzs = rk4_flow(f_aug, xz0, h, u0, um, u1, forcing)
    return xzs[..., :nx], xzs[..., nx:].reshape(xzs.shape[:-1] + (nx, k))


def rk4_flow_stm(f, dfdx, x0: Array, h: float, u0: Array, um: Array,
                 u1: Array) -> tuple[Array, Array]:
    """The flow and its state-transition matrices P' = dfdx(x, u) @ P,
    P(0) = I, on the same RK4 stages, from one state (n_x,) or a block
    (B, n_x) as in `_rk4_tangents`. Returns (states, stms) of shapes
    (n+1,) + x0.shape and (n+1,) + x0.shape + (n_x,)."""
    return _rk4_tangents(f, dfdx, x0, np.eye(x0.shape[-1]), h, u0, um, u1)


def rk4_flow_sens(f, dfdx, x0: Array, h: float, u0: Array, um: Array,
                  u1: Array, w: Array, dw: Array) -> tuple[Array, Array]:
    """The w-perturbed flow x' = f(x, u) + w and k noise sensitivities
    Z' = dfdx(x, u) @ Z + F, Z(0) = 0, on the same RK4 stages.

    `dw` holds the forcing F per step, (n, n_x, k). `w` is (n, n_x), or
    (n, B, n_x) for B noise draws sharing those directions; then x0, one
    start (n_x,) shared by the draws or one per draw (B, n_x), flows as a
    block, with f and dfdx on stacked rows. Returns (states, zs) of shapes
    (n+1,) + rows + (n_x,) and (n+1,) + rows + (n_x, k), rows being ()
    or (B,).
    """
    n, nx, k = dw.shape
    rows = w.shape[1:-1]
    forcing = _StepRows(rows + (nx + nx * k,), (w, dw.reshape(n, nx * k)))
    return _rk4_tangents(f, dfdx, np.broadcast_to(x0, rows + (nx,)),
                         np.zeros((nx, k)), h, u0, um, u1, forcing)


class _StepRows:
    """A per-step array of n steps whose step i, of shape `step_shape`, is
    built only when `rk4_flow` reads it: the step-i values of the parts
    side by side in the last axis, each broadcast over the rows, the rows
    taken as `groups` equal groups. So values that many rows of a block
    share, the noise directions of `rk4_flow_sens` or a window's inputs
    repeated for each of its rows, are not copied into every row for all
    steps at once."""

    def __init__(self, step_shape: tuple, parts: Sequence[Array], groups: int = 1):
        self.step_shape, self.groups = step_shape, groups
        ends = np.cumsum([part.shape[-1] for part in parts]).tolist()
        self.parts = [(part, slice(end - part.shape[-1], end))
                      for part, end in zip(parts, ends)]

    def __len__(self) -> int:
        return len(self.parts[0][0])

    def __getitem__(self, i: int) -> Array:
        out = np.empty(self.step_shape)
        rows = out if self.groups == 1 else out.reshape(
            (self.groups, -1, self.step_shape[-1]))
        for part, cols in self.parts:
            rows[..., cols] = part[i]
        return out


def _per_row(fn: Callable[[Array, Array], Array]) -> Callable[[Array, Array], Array]:
    """fn of one state and one input row, applied to each stacked state
    with the input row u, (n_u,), that they share, or with its own row of
    u, (B, n_u)."""
    def rows(xs: Array, u: Array) -> Array:
        us = u if np.ndim(u) == 2 else repeat(u)
        return np.stack([fn(x, ui) for x, ui in zip(xs, us)])
    return rows


def _f_rows(sys: ControlSystem) -> Callable[[Array, Array], Array]:
    """The system's f on stacked rows, or a per-row fallback."""
    return _per_row(sys.f) if sys.f_rows is None else sys.f_rows


def _df_dx_rows(sys: ControlSystem) -> Callable[[Array, Array], Array]:
    """The system's df_dx on stacked rows, or a per-row fallback."""
    return _per_row(sys.df_dx) if sys.df_dx_rows is None else sys.df_dx_rows


def _at_nodes(fn: Callable[[Array, Array], Array], xs: Array, us: Array,
              shape: tuple[int, ...], name: str) -> Array:
    """fn(xs[i], us[i]) of a row callback at every node i of a row block
    xs, (n, B, n_x), from one call on all n*B rows, laid out (B, n) + shape
    so that each row's values are contiguous. us holds the node inputs,
    (n, n_u), shared by the rows, or (n, G, n_u) for G equal groups of
    rows, each group's input repeated for its rows; each row is passed
    its own input row. DimensionMismatch if us is not of that form or the
    call does not return (n*B,) + shape."""
    n, b = xs.shape[:2]
    g = 1 if us.ndim == 2 else us.shape[1]
    if us.ndim not in (2, 3) or us.shape[0] != n or b % g:
        raise DimensionMismatch(
            f"node inputs have shape {us.shape}, expected ({n}, n_u) or ({n}, G, n_u) "
            f"with G dividing {b}")
    rows = np.repeat(us.reshape(n, g, -1), b // g, axis=1).reshape(n * b, -1)
    v = np.asarray(fn(xs.reshape(n * b, xs.shape[2]), rows))
    if v.shape != (n * b,) + shape:
        raise DimensionMismatch(
            f"{name} returned shape {v.shape}, expected {(n * b,) + shape}")
    out = np.empty((b, n) + shape)
    out[:] = v.reshape((n, b) + shape).swapaxes(0, 1)
    return out


def outputs_rows(sys: ControlSystem, xs: Array, us: Array) -> Array:
    """The outputs h of every row of a block xs, (n, B, n_x), at the node
    inputs us, (n, n_u), or one input row per state, (n, B, n_u): one
    `h_rows` call (or its per-row fallback) on all rows at all nodes.
    Returns (B, n, n_y); [b] equals the per-row outputs of xs[:, b] bit
    for bit."""
    return _at_nodes(sys.h_rows or _per_row(sys.h), xs, us, (sys.n_y,), "h_rows")


def output_jacobians_rows(sys: ControlSystem, xs: Array, us: Array) -> Array:
    """The output Jacobians dh_dx of every row of a block xs, (n, B, n_x),
    at the node inputs us, as in `outputs_rows`: one `dh_dx_rows` call (or
    its per-row fallback) on all rows at all nodes. Returns
    (B, n, n_y, n_x); [b] equals the per-row Jacobians bit for bit."""
    return _at_nodes(sys.dh_dx_rows or _per_row(sys.dh_dx), xs, us,
                     (sys.n_y, sys.n_x), "dh_dx_rows")


def _guard_rows(sys: ControlSystem) -> Optional[Callable[[Array], Array]]:
    """The system's domain guard on stacked rows, a per-row fallback, or
    None when the system has no guard."""
    if sys.domain_guard_rows is not None or sys.domain_guard is None:
        return sys.domain_guard_rows
    guard = sys.domain_guard
    return lambda xs: np.fromiter((bool(guard(x)) for x in xs), dtype=bool,
                                  count=xs.shape[0])


def _check_guard(sys: ControlSystem, xs: Array, where: str) -> None:
    """DomainViolation unless every state in xs, (..., n_x), is finite and
    passes the domain guard; checked on blocks of _GUARD_BLOCK states."""
    rows = xs.reshape(-1, xs.shape[-1])
    blocks = range(0, rows.shape[0], _GUARD_BLOCK)
    if not all(np.isfinite(rows[i:i + _GUARD_BLOCK]).all() for i in blocks):
        raise DomainViolation(f"non-finite state during {where}")
    guard = _guard_rows(sys)
    if guard is not None and not all(guard(rows[i:i + _GUARD_BLOCK]).all()
                                     for i in blocks):
        raise DomainViolation(f"domain guard failed during {where}")


def _span(grid: TimeGrid, s1: float, s2: float, u: InputSignal) -> TimeGrid:
    if s2 < s1:
        raise GridMismatch("s1 must not exceed s2")
    sub = grid.subgrid(s1, s2)
    u.check_breakpoints_on(sub)
    return sub


def flow(sys: ControlSystem, s1: float, s2: float, xi: Array, u: InputSignal,
         grid: TimeGrid) -> Array:
    """States of x' = f(x, u) from (s1, xi) at every grid node in [s1, s2]:
    a reference flow, one trajectory through the per-row f."""
    xi = require_state(sys, xi, "xi")
    sub = _span(grid, s1, s2, u)
    u0, um, u1 = u.stage_values(sub.t_start, sub.h, sub.n_steps, sub)
    xs = rk4_flow(sys.f, xi, sub.h, u0, um, u1)
    _check_guard(sys, xs, "flow")
    return xs


def stm(sys: ControlSystem, s1: float, s2: float, xi: Array, u: InputSignal,
        grid: TimeGrid) -> Array:
    """State-transition matrices d_xi phi(s; s1, xi, u) at the grid nodes."""
    return flow_and_stm(sys, s1, s2, xi, u, grid)[1]


def flow_and_stm(sys: ControlSystem, s1: float, s2: float, xi: Array,
                 u: InputSignal, grid: TimeGrid) -> tuple[Array, Array]:
    """State and STM trajectories co-integrated on the same RK4 stages:
    the one-row case of `flow_and_stm_windows` on the span [s1, s2]."""
    xi = require_state(sys, xi, "xi")
    xs, phis = flow_and_stm_windows(sys, [_span(grid, s1, s2, u)], xi[None, None], u)
    return xs[:, 0], phis[:, 0]


def _window_inputs(u: InputSignal, wins: Sequence[TimeGrid], m: int,
                   which: int) -> list:
    """The inputs of W windows of one run grid with one step count n, each
    window's repeated for m rows of a block, window-major: for which = 1
    its stage inputs (u0, um, u1) at the n steps, for which = 0 its inputs
    at the n + 1 nodes. Window w's inputs are the slice of the run grid's
    staging that `stage_values` or `at_nodes` serves for it, and they
    raise DomainViolation and GridMismatch as those and the flows on each
    window do. One window gets those slices themselves, (n, n_u) or
    (n + 1, n_u): one input row per step, shared by every row. Several
    windows get them gathered at once, (W*m, n_u) rows per step: as arrays
    when m = 1, otherwise as `_StepRows` that repeat each window's row
    when a step is read."""
    base, n = wins[0].base, wins[0].n_steps
    if any(win.base != base or win.n_steps != n for win in wins):
        raise GridMismatch("windows of one block need one run grid and one step count")
    for win in wins:
        u.check_breakpoints_on(win)
    staging = _staging(u, base.t_start, base.h, base.n_steps)
    starts = np.array([win.offset for win in wins])
    count = n + 1 - which
    for i0 in starts.tolist():
        _check_span(staging[3], which, i0, count, u.bound)
    values = staging[:1 if which == 0 else 3]
    if len(wins) == 1:
        return [v[wins[0].offset:wins[0].offset + count] for v in values]
    index = starts + np.arange(count)[:, None]
    gathered = [v[index] for v in values]
    if m == 1:
        return gathered
    return [_StepRows((len(wins) * m,) + g.shape[2:], (g[:, :, None],), len(wins))
            for g in gathered]


def is_number(v) -> bool:
    """Whether v is a real, not a bool, in the float range; numpy scalars pass."""
    return isinstance(v, Real) and not isinstance(v, bool) and abs(v) <= float_info.max


# The one table of argument rules, for the library (`require`) and the
# CLI's config fields: each rule's wording and its test of a number.
RULES = {
    "number": ("must be a number", lambda v: True),
    "positive": ("must be positive", lambda v: v > 0),
    "nonnegative": ("must be nonnegative", lambda v: v >= 0),
    "whole": ("must be nonnegative and whole", lambda v: v >= 0 and v == int(v)),
    "count": ("must be at least 1 and whole", lambda v: v >= 1 and v == int(v)),
    "fraction": ("must lie in (0, 1)", lambda v: 0 < v < 1),
}


def require(rule, /, **values) -> None:
    """ValueError naming the first of the values that breaks the rule: a
    `RULES` name, which only a number (`is_number`) can meet, or the tuple
    of the values allowed."""
    for name, v in values.items():
        if isinstance(rule, tuple):
            ok, text = v in rule, f"must be one of {rule}"
        else:
            text, test = RULES[rule]
            ok = is_number(v) and test(v)
        if not ok:
            raise ValueError(f"{name} {text}, got {v!r}")


def require_state(sys: ControlSystem, x: Array, name: str) -> Array:
    """x as one float state (n_x,); DimensionMismatch naming it otherwise."""
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n_x,):
        raise DimensionMismatch(f"{name} has shape {x.shape}, expected ({sys.n_x},)")
    return x


def _window_starts(sys: ControlSystem, wins: Sequence[TimeGrid], xis: Array) -> Array:
    """xis as a float block (W, m >= 1, n_x), W = len(wins) >= 1;
    DimensionMismatch otherwise."""
    xis = np.asarray(xis, dtype=float)
    if not wins or xis.ndim != 3 or xis.shape[0] != len(wins) or xis.shape[1] < 1 \
            or xis.shape[2] != sys.n_x:
        raise DimensionMismatch(
            f"starts have shape {xis.shape}, expected ({len(wins)} >= 1, m >= 1, {sys.n_x})")
    return xis


def flow_windows(sys: ControlSystem, wins: Sequence[TimeGrid], xis: Array,
                 u: InputSignal) -> Array:
    """`flow` from m starts on each of W windows of one run grid with one
    step count n, as one block: xis, (W, m, n_x), holds the m starts at
    the start of each window wins[w], and every row flows on its own
    window's inputs. One window, [win] and xis (1, B, n_x), flows a block
    of B starts on one span.

    Returns (n+1, W*m, n_x), window-major; [:, w*m + j] equals `flow` from
    xis[w, j] on wins[w] bit for bit. A start whose flow `flow` rejects
    makes the block raise DomainViolation.
    """
    xis = _window_starts(sys, wins, xis)
    u0, um, u1 = _window_inputs(u, wins, xis.shape[1], 1)
    xs = rk4_flow(_f_rows(sys), xis.reshape(-1, sys.n_x), wins[0].h, u0, um, u1)
    _check_guard(sys, xs, "flow")
    return xs


def flow_and_stm_windows(sys: ControlSystem, wins: Sequence[TimeGrid], xis: Array,
                         u: InputSignal) -> tuple[Array, Array]:
    """`flow_windows` with the state-transition matrices co-integrated on
    the same RK4 stages. Returns states (n+1, W*m, n_x) and STMs
    (n+1, W*m, n_x, n_x); row w*m + j equals the tangent flow of xis[w, j]
    alone on wins[w] bit for bit."""
    xis = _window_starts(sys, wins, xis)
    u0, um, u1 = _window_inputs(u, wins, xis.shape[1], 1)
    xs, phis = rk4_flow_stm(_f_rows(sys), _df_dx_rows(sys), xis.reshape(-1, sys.n_x),
                            wins[0].h, u0, um, u1)
    _check_guard(sys, xs, "stm")
    return xs, phis


def perturbed_flow(sys: ControlSystem, s1: float, s2: float, xi: Array,
                   u: InputSignal, w: Optional[SampledSignal],
                   grid: TimeGrid) -> Array:
    """States of x' = f(x, u) + w; with w = None this is exactly `flow`."""
    xi = require_state(sys, xi, "xi")
    require_width(w, sys.n_x, "process noise w")
    sub = _span(grid, s1, s2, u)
    u0, um, u1 = u.stage_values(sub.t_start, sub.h, sub.n_steps, sub)
    wv = None if w is None else w.step_values(sub.t_start, sub.h, sub.n_steps)
    xs = rk4_flow(sys.f, xi, sub.h, u0, um, u1, wv)
    _check_guard(sys, xs, "perturbed_flow")
    return xs


def perturbed_flow_and_sensitivities(sys: ControlSystem, t_end: float, xi: Array,
                                     u: InputSignal, w: Optional[SampledSignal],
                                     dws: Sequence[SampledSignal],
                                     grid: TimeGrid) -> tuple[Array, Array]:
    """The w-perturbed flow from (0, xi) on [0, t_end] and its derivatives
    along k process-noise directions, from one integration.

    Returns the states x~(s, w), equal to `perturbed_flow` from (0, xi),
    and zs of shape (n+1, n_x, k) whose column j is the
    `noise_sensitivity` along dws[j]: z' = d_x f(x~, u) z + dws[j](s),
    z(0) = 0.
    """
    xs, zs = perturbed_flow_and_sensitivities_rows(sys, t_end, xi, u, [w], dws, grid)
    return xs[:, 0], zs[:, 0]


def perturbed_flow_and_sensitivities_rows(
        sys: ControlSystem, t_end: float, xi: Array, u: InputSignal,
        ws: Sequence[Optional[SampledSignal]], dws: Sequence[SampledSignal],
        grid: TimeGrid) -> tuple[Array, Array]:
    """`perturbed_flow_and_sensitivities` from (0, xi) for each noise draw
    in ws (None meaning zero noise), sharing the directions dws, as one
    batch with per-row forcing.

    Returns states (n+1, B, n_x) and zs (n+1, B, n_x, k), B = len(ws) >= 1;
    [:, b] is the flow and sensitivities under ws[b] alone.
    """
    xi = require_state(sys, xi, "xi")
    if not ws:
        raise ValueError("need at least one noise draw")
    for w in ws:
        require_width(w, sys.n_x, "process noise w")
    for dw in dws:
        require_width(dw, sys.n_x, "noise direction dw")
    sub = _span(grid, 0.0, t_end, u)
    u0, um, u1 = u.stage_values(sub.t_start, sub.h, sub.n_steps, sub)
    wv = np.zeros((sub.n_steps, len(ws), sys.n_x))
    for b, w in enumerate(ws):
        if w is not None:
            wv[:, b] = w.step_values(sub.t_start, sub.h, sub.n_steps)
    dwv = np.stack([dw.step_values(sub.t_start, sub.h, sub.n_steps) for dw in dws],
                   axis=-1)
    xs, zs = rk4_flow_sens(_f_rows(sys), _df_dx_rows(sys), xi, sub.h, u0, um, u1,
                           wv, dwv)
    _check_guard(sys, xs, "noise_sensitivity")
    return xs, zs


def _tangent_rows_on(sys: ControlSystem, win: TimeGrid, xs: Array, zs: Array,
                    u: InputSignal, forcing: Array) -> tuple[Array, Array]:
    """`_rk4_tangents` of a block on the span win of a run grid: B rows
    continued from the states xs, (B, n_x), and tangents zs, (B, n_x, k),
    at its start, every row at win's stage inputs, with the forcing
    [w_i; vec F_i] of each step and row, (n, B, n_x + n_x*k).

    Returns states (n+1, B, n_x) and tangents (n+1, B, n_x, k). A flow
    split at a node equals the whole flow bit for bit, so a row continued
    from the end of its `perturbed_flow_and_sensitivities_rows` row
    equals that row flowed on to win's end, and a row from zs = I with no
    forcing equals its `flow_and_stm_windows` row.
    """
    u0, um, u1 = _window_inputs(u, [win], 1, 1)
    xs, zs = _rk4_tangents(_f_rows(sys), _df_dx_rows(sys), xs, zs, win.h, u0, um, u1,
                           forcing)
    _check_guard(sys, xs, "noise_sensitivity")
    return xs, zs


def noise_sensitivity(sys: ControlSystem, t_end: float, xi: Array, u: InputSignal,
                      w: Optional[SampledSignal], dw: SampledSignal,
                      grid: TimeGrid) -> Array:
    """Directional derivative z(s) = d_w x~(s, w) . dw on [0, t_end].

    z solves z' = d_x f(x~(s, w), u(s)) z + dw(s) with z(0) = 0, where x~
    is the w-perturbed flow from (0, xi). Linear in dw.
    """
    return perturbed_flow_and_sensitivities(sys, t_end, xi, u, w, [dw], grid)[1][:, :, 0]
