"""Pathwise stochastic integrals against the compensated noise.

Two engines, cross-validated in the tests:

* chain engine (`iterated_chain`): time-ordered integrals of a field chain,
  J(g_1, ..., g_n) = Int_{t_1 < ... < t_n} g_1(w_1) ... g_n(w_n) dM ... dM.
  Between events the state vector obeys a nilpotent triangular ODE driven by
  the compensator, solved in closed form per cell; jumps apply exact updates
  at their event times. Inside a cell all jumpy paths advance together, one
  event rank at a time, through stacks of transfer matrices, so the Python
  work grows with the most jumps one path has in a cell, not with the number
  of jumps or paths. Exact for pure-jump models; with a diffusion part
  (sigma > 0) it keeps the jump/compensator handling exact and adds an Euler
  left-point update for the diffusion part at each cell start, biased O(dt).

* power engine (`power_integrals`): the n-fold integrals of tensor powers
  I_n(f^(x)n) for any finite-activity model, as n! times the coefficients of
  the stochastic exponential's generating function. Its log is linear in the
  path's Brownian increments and jump records (x z - s z^2 / 2 per diffusion
  cell, log(1 + v z) per jump, the compensator in order 1), so the engine
  sums one log series per path and takes one truncated series exp; the work
  is one pass over the jumps and the time cells per order. Exact pathwise on
  pure-jump models. With a diffusion part, orders >= 3 carry a known defect
  of the heat factor, kept in the one term `_heat_defect`.

First-order integrals, the stochastic (Doleans) exponential, and the
characteristic-function martingale with its integrand reconstruction
(`representation_residual`, which walks all paths at once, event rank by
event rank, through the chain engine's grouping) live here too. Every
engine takes a PathEnsemble and returns one value per path; a single path
is a one-path ensemble.
"""
from __future__ import annotations

from math import factorial
from typing import NamedTuple

import numpy as np

from .levy import (
    CellGrid,
    PathEnsemble,
    StepField,
    cell_increments,
)

__all__ = [
    "ENGINE_VERSION",
    "stochastic_integral",
    "iterated_chain",
    "power_integrals",
    "doleans_exp",
    "exp_martingale_grid",
    "representation_residual",
]

# 1: power_integrals multiplies per-cell heat-Hermite and shifted-binomial
# series; 2: one log sum per path and one truncated series exp, the same
# values up to rounding. A change that moves record values bumps it, and every
# report bundle records it in env.json.
ENGINE_VERSION = 2


def stochastic_integral(field: StepField, ens: PathEnsemble) -> np.ndarray:
    """First-order integral: sum of field values times cell increments."""
    if not field.grid.same_as(ens.grid):
        raise ValueError("field and paths live on different grids")
    vals = field.cell_values()
    inc = cell_increments(ens)
    return inc.astype(np.complex128) @ vals


def _cmul(a, b) -> np.ndarray:
    """a * b for complex or real arrays and scalars, in real arithmetic.

    numpy's complex array multiply may fuse (FMA), so it is not bit-equal to
    the scalar product; this is, and a real operand acts as x + 0j, as numpy
    promotes it.
    """
    # a real operand's imaginary part is the scalar 0.0, so no array of zeros is made
    ar, br = a.real, b.real
    ai = a.imag if np.iscomplexobj(a) else 0.0
    bi = b.imag if np.iscomplexobj(b) else 0.0
    real = ar * br - ai * bi
    out = np.empty(np.shape(real), dtype=np.complex128)
    out.real = real
    out.imag = ar * bi + ai * br
    return out


class _CellEvents(NamedTuple):
    """One cell's jumps, grouped for a walk that moves all paths at once.

    Row r is path paths[r], the r-th path with a jump in the cell. events
    indexes the ensemble's jump arrays, grouped by (rank, path): an event's
    rank is its place among its path's jumps in the cell, in time order, and
    the events of rank j are events[bounds[j]:bounds[j + 1]], with rows[i]
    the row of events[i].
    """

    paths: np.ndarray
    rows: np.ndarray
    events: np.ndarray
    bounds: list[int]


def _cell_events(ens: PathEnsemble) -> list[_CellEvents | None]:
    """Per cell of the paths' grid, its jumps by rank, or None if it has none."""
    K = ens.grid.n_time
    # jumps sorted by (cell, path, time); a run is one path's jumps in one cell
    cells = ens.jump_cells
    order = np.lexsort((ens.jump_times, ens.jump_paths, cells))
    s_cells = cells[order]
    s_paths = ens.jump_paths[order]
    cell_start = np.searchsorted(s_cells, np.arange(K + 1)).tolist()
    new_run = np.ones(s_cells.size, dtype=bool)
    new_run[1:] = (s_cells[1:] != s_cells[:-1]) | (s_paths[1:] != s_paths[:-1])
    run_start = np.flatnonzero(new_run)
    run_of = np.cumsum(new_run) - 1
    rank = np.arange(s_cells.size) - run_start[run_of]
    # the same events grouped by (cell, rank, path)
    by_rank = np.lexsort((s_paths, rank, s_cells))
    out = []
    for lo, hi in zip(cell_start[:-1], cell_start[1:]):
        if lo == hi:
            out.append(None)
            continue
        seg = by_rank[lo:hi]
        ranks = rank[seg]
        out.append(
            _CellEvents(
                s_paths[run_start[run_of[lo] : run_of[hi - 1] + 1]],
                run_of[seg] - run_of[lo],
                order[seg],
                np.searchsorted(ranks, np.arange(ranks[-1] + 2)).tolist(),
            )
        )
    return out


def _compensator_weights(comp: np.ndarray) -> np.ndarray:
    """Transfer weights of compensator rows comp (C, n), shape (C, n+1, n+1).

    Entry (j, i) below the diagonal is prod_{i < l <= j} (-comp[c, l-1]),
    multiplied up in l as complex scalars; the diagonal is 1, the rest 0.
    """
    C, n = comp.shape
    out = np.zeros((C, n + 1, n + 1), dtype=np.complex128)
    for c in range(C):
        for i in range(n + 1):
            out[c, i, i] = 1.0
            prod = 1.0 + 0.0j
            for j in range(i + 1, n + 1):
                prod = prod * (-comp[c, j - 1])
                out[c, j, i] = prod
    return out


def _transfer_matrices(weights: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Closed-form flows of the compensator ODE z_j' = -comp[j-1] z_{j-1}.

    One (n+1, n+1) matrix per gap, stacked as (m, n+1, n+1): entry (j, i) is
    weights[j, i] * delta^(j-i) / (j-i)!, for weights of shape (m, n+1, n+1),
    one per gap, or (1, n+1, n+1), shared. The powers come from Python's
    float pow and the complex-by-real products are spelled out in real
    arithmetic, because numpy's array power and complex multiply are not
    bit-equal to the scalar operations; so every matrix has the bits of one
    built from scalars, whatever the stack.
    """
    size = weights.shape[-1]
    order = np.maximum(np.subtract.outer(np.arange(size), np.arange(size)), 0)
    gaps = deltas.tolist()
    pw = np.array([[d**k for d in gaps] for k in range(size)])[order].transpose(2, 0, 1)
    L = _cmul(weights, pw)
    L /= np.array([float(factorial(k)) for k in range(size)])[order]
    return L


def _flow(weights: np.ndarray, deltas: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Z[r] carried over the gap deltas[r] by its transfer matrix, per row."""
    return np.matmul(_transfer_matrices(weights, deltas), Z[:, :, None])[:, :, 0]


def iterated_chain(fields: list[StepField], ens: PathEnsemble) -> np.ndarray:
    """Time-ordered chain integral J(fields[0], ..., fields[-1]).

    fields[0] is innermost (integrated first). Every field lives on the
    paths' grid. The walk is exact when sigma = 0 and Euler in the diffusion
    part otherwise.
    """
    if not fields:
        raise ValueError("need at least one field")
    grid = ens.grid
    if not all(f.grid.same_as(grid) for f in fields):
        raise ValueError("field and paths live on different grids")

    n = len(fields)
    P = ens.n_paths
    K = grid.n_time
    dt = grid.dt
    rates = grid.bin_rates  # nu per jump bin
    n_bins = grid.n_bins

    # per-cell compensator rates c_j = sum_b g_j(cell, b) nu_b
    field_vals = [f.values for f in fields]
    comp = np.empty((K, n), dtype=np.complex128)
    for k in range(K):
        for j in range(n):
            comp[k, j] = np.sum(field_vals[j][k, 1:n_bins] * rates)
    weights = _compensator_weights(comp)
    # the flow over each whole cell
    cell_flow = _transfer_matrices(weights, np.full(K, dt))

    jump_times = ens.jump_times
    jump_bins = ens.jump_bins
    state = np.zeros((P, n + 1), dtype=np.complex128)
    state[:, 0] = 1.0
    sigma = grid.model.sigma
    for k, cell in enumerate(_cell_events(ens)):
        if ens.brownian is not None:
            db = sigma * ens.brownian[:, k]
            for j in range(n, 0, -1):
                g = field_vals[j - 1][k, 0]
                if g != 0:
                    state[:, j] += g * db * state[:, j - 1]
        L = cell_flow[k]
        w = weights[k : k + 1]
        if cell is None:
            state = state @ L.T
            continue
        # row r of Z is path cell.paths[r]
        Z = state[cell.paths]
        state = state @ L.T
        rows = cell.rows
        times = jump_times[cell.events]
        bins = jump_bins[cell.events]
        t_cur = np.full(cell.paths.size, k * dt)
        # rank by rank: every path with more than r jumps here takes its r-th
        for a, b in zip(cell.bounds[:-1], cell.bounds[1:]):
            r_rows, t_e = rows[a:b], times[a:b]
            move = t_e > t_cur[r_rows]
            if move.any():
                sub = r_rows[move]
                Z[sub] = _flow(w, t_e[move] - t_cur[sub], Z[sub])
                t_cur[sub] = t_e[move]
            for j in range(n, 0, -1):
                g = field_vals[j - 1][k, bins[a:b]]
                hit = g != 0
                if not hit.any():
                    continue
                hit_rows = r_rows[hit]
                Z[hit_rows, j] += _cmul(g[hit], Z[hit_rows, j - 1])
        t_right = (k + 1) * dt
        move = t_right > t_cur
        if move.any():
            Z[move] = _flow(w, t_right - t_cur[move], Z[move])
        state[cell.paths] = Z
    return state[:, n].copy()


def _series_exp(log: np.ndarray) -> np.ndarray:
    """Coefficients of exp(sum_{r >= 1} log[r] z^r), truncated at log's length.

    log holds one row per order, (n_max + 1, P), and row 0 is not read. The
    rows follow e_0 = 1 and m e_m = sum_{r=1..m} r log[r] e_{m-r} (Brent &
    Kung 1978), with complex products in real arithmetic (`_cmul`).
    """
    out = np.empty_like(log)
    out[0] = 1.0
    for m in range(1, log.shape[0]):
        acc = _cmul(log[1], out[m - 1])
        for r in range(2, m + 1):
            acc += _cmul(float(r), _cmul(log[r], out[m - r]))
        out[m].real = acc.real / m
        out[m].imag = acc.imag / m
    return out


def _heat_defect(g: list, s: list, lin: np.ndarray, const: np.ndarray) -> None:
    """Add the heat factor's known defect to a diffusion log, in place.

    g[k] = sigma field(k, 0) and s[k] = g[k]^2 dt per time cell; lin[r, k]
    is the coefficient of dW_k in order r and const[r] the constant. The heat
    factor of a diffusion cell is exp(x z - s z^2 / 2) with x = g dW, whose
    coefficients follow m h_m = x h_{m-1} - s h_{m-2}. The engine's heat
    factor follows m h_m = x h_{m-1} - (m - 1) s h_{m-2} instead, whose log is
    x sum_{j>=0} (-s)^j z^(2j+1) / (2j+1) + sum_{j>=1} (-s)^j z^(2j) / (2j):
    the heat log plus the terms added here, from order 3 up. So orders >= 3
    are off by O(dt) on any model with a diffusion part. The term is kept so
    that the records reading those orders keep their values; the fix deletes
    this function and its call (see ROADMAP).
    """
    n_max = const.size - 1
    for k, (gk, sk) in enumerate(zip(g, s)):
        p = 1.0 + 0.0j
        for j in range(1, n_max // 2 + 1):
            p = p * -sk
            if 2 * j + 1 <= n_max:
                lin[2 * j + 1, k] += gk * p / (2 * j + 1)
            if j >= 2:
                const[2 * j] += p / (2 * j)


def _power_log(field: StepField, n_max: int, ens: PathEnsemble) -> np.ndarray:
    """Log of sum_n I_n(field^(x)n) z^n / n! per path, order-major (n_max + 1, P).

    A jump of the path in cell (k, b) with field value v adds log(1 + v z),
    whose order r is (-1)^(r+1) v^r / r, and every jump cell adds its
    compensator -v nu_b dt to order 1; a diffusion cell adds g dW_k z -
    g^2 dt z^2 / 2 with g = sigma field(k, 0), plus the known defect of
    `_heat_defect`. The work is one pass over the jumps and over the time
    cells per order; row 0 stays zero.
    """
    grid = ens.grid
    K, n_bins, dt = grid.n_time, grid.n_bins, grid.dt
    P = ens.n_paths
    log = np.zeros((n_max + 1, P), dtype=np.complex128)
    if n_max == 0:
        return log
    vals = field.values
    const = np.zeros(n_max + 1, dtype=np.complex128)
    # per (time, bin) cell, flattened, order r of log(1 + v z)
    jump_coef = np.zeros((n_max + 1, K * n_bins), dtype=np.complex128)
    for k in range(K):
        for b in range(1, n_bins):
            v = complex(vals[k, b])
            if v == 0:
                continue
            const[1] -= v * (grid.bin_rates[b - 1] * dt)
            p = 1.0 + 0.0j
            for r in range(1, n_max + 1):
                p = p * v
                jump_coef[r, k * n_bins + b] = (p if r % 2 else -p) / r
    sigma = grid.model.sigma
    lin = np.zeros((n_max + 1, K), dtype=np.complex128)
    if sigma > 0:
        g = [complex(v) * sigma for v in vals[:, 0]]
        s = [gk * gk * dt for gk in g]
        lin[1] = g
        if n_max >= 2:
            const[2] = sum(-sk / 2 for sk in s)
        _heat_defect(g, s, lin, const)

    log[1:] = const[1:, None]
    if ens.jump_times.size:
        cell = ens.jump_cells * n_bins + ens.jump_bins
        for r in range(1, n_max + 1):
            w = jump_coef[r, cell]
            log[r].real += np.bincount(ens.jump_paths, weights=w.real, minlength=P)
            log[r].imag += np.bincount(ens.jump_paths, weights=w.imag, minlength=P)
    for r in range(1, n_max + 1):
        for part, c in ((log[r].real, lin[r].real), (log[r].imag, lin[r].imag)):
            if c.any():
                part += np.sum(ens.brownian * c, axis=1)
    return log


def power_integrals(field: StepField, n_max: int, ens: PathEnsemble) -> np.ndarray:
    """I_n(field^(x)n) for n = 0..n_max, shape (P, n_max + 1).

    Coefficients of the stochastic exponential of z * field, multiplied by n!,
    for any finite-activity model; exact pathwise when sigma = 0. The log of that generating function
    is linear in the path's Brownian increments and jump records
    (`_power_log`), so every order comes from one sum per path and one
    truncated series exp (`_series_exp`). The series are held order-major,
    one contiguous row of P paths per order, and transposed once on return.
    Orders >= 3 carry the known defect of `_heat_defect` when sigma > 0.
    """
    if not field.grid.same_as(ens.grid):
        raise ValueError("field and paths live on different grids")
    out = _series_exp(_power_log(field, n_max, ens))
    for m in range(2, n_max + 1):
        out[m] *= factorial(m)
    return out.T.copy()


def doleans_exp(field: StepField, ens: PathEnsemble) -> np.ndarray:
    """Stochastic exponential of the first-order integral of the field.

    exp(Y(T) - sigma^2/2 * Int f(s, 0)^2 ds) * Prod_jumps (1 + dY) exp(-dY),
    with the bilinear square in the diffusion correction (complex fields are
    fine) and dY the field value at each jump's cell.
    """
    grid = ens.grid
    if not field.grid.same_as(grid):
        raise ValueError("field and paths live on different grids")
    model = grid.model
    y = stochastic_integral(field, ens)
    bracket = 0.0 + 0.0j
    if model.sigma > 0:
        prof = field.values[:, 0]
        bracket = 0.5 * model.sigma**2 * np.sum(prof * prof) * grid.dt
    out = np.exp(y - bracket)
    if ens.jump_times.size:
        v = field.values[ens.jump_cells, ens.jump_bins]
        factors = (1.0 + v) * np.exp(-v)
        prod = np.ones(ens.n_paths, dtype=np.complex128)
        nonempty = ens.offsets[1:] > ens.offsets[:-1]
        starts = ens.offsets[:-1][nonempty]
        if starts.size:
            prod[nonempty] = np.multiply.reduceat(factors, starts)
        out = out * prod
    return out


def _real_profile(f, grid: CellGrid) -> np.ndarray:
    prof = np.asarray(f, dtype=np.complex128)
    if prof.shape != (grid.n_time,):
        raise ValueError(f"profile expects shape ({grid.n_time},)")
    if np.max(np.abs(prof.imag), initial=0.0) > 1e-14:
        raise ValueError("the characteristic-function martingale needs a real profile")
    return prof.real.copy()


def _eta_profile(model, prof: np.ndarray) -> np.ndarray:
    return np.array([model.symbol(u) for u in prof])


def exp_martingale_grid(f, ens: PathEnsemble) -> np.ndarray:
    """M(t) = exp(i Int_0^t f dX + Int_0^t eta(f(s)) ds) at t_0..t_K, per path.

    f is a real cell profile integrated against the raw increment dX (drift,
    diffusion, compensated small jumps, raw large jumps). Shape (P, K + 1);
    M(t_0) = 1.
    """
    grid = ens.grid
    model = grid.model
    prof = _real_profile(f, grid)
    K, dt = grid.n_time, grid.dt
    P = ens.n_paths
    drift = model.b - model.small_jump_drift
    # deterministic part of i X_f plus the symbol integral, cumulative
    det = 1j * prof * drift * dt + _eta_profile(model, prof) * dt
    steps = np.tile(det, (P, 1))
    if model.sigma > 0:
        steps = steps + 1j * prof[None, :] * model.sigma * ens.brownian
    if ens.jump_times.size:
        sizes = np.array([x for x, _ in model.atoms])[ens.jump_atoms]
        contrib = 1j * prof[ens.jump_cells] * sizes
        np.add.at(steps, (ens.jump_paths, ens.jump_cells), contrib)
    out = np.ones((P, K + 1), dtype=np.complex128)
    np.cumsum(steps, axis=1, out=steps)
    # a heavy jump law can overflow to inf here; the record then fails as NaN
    with np.errstate(over="ignore", invalid="ignore"):
        out[:, 1:] = np.exp(steps)
    return out


def _exp_and_integral(z: complex, ell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(z ell) and its integral (exp(z ell) - 1) / z per gap ell, the latter
    by its series near z ell = 0, with the bits of scalar complex arithmetic."""
    w = _cmul(z, ell)
    grow = np.exp(w)
    small = np.hypot(w.real, w.imag) < 1e-8
    integral = np.empty_like(w)
    big = ~small
    integral[big] = (grow[big] - 1.0) / z
    ws = w[small]
    integral[small] = _cmul(ell[small], 1.0 + ws / 2.0 + _cmul(ws, ws) / 6.0)
    return grow, integral


def representation_residual(f, ens: PathEnsemble) -> np.ndarray:
    """Defect of the integrand reconstruction of M(T) - 1, one value per path.

    Pure-jump models only: exact event walk (residual at rounding scale), using
    psi(s, x) = (exp(i f(s) x) - 1) M(s-) against the compensated jump
    measure, with closed-form compensator integrals between events. The cell
    constants are computed once; inside a cell all paths move together, one
    event rank at a time, and a path without an event there takes only the
    cell-end step. Complex products are spelled out (`_cmul`), so every value
    has the bits of a scalar walk along its path. A model with a diffusion
    part (sigma > 0) raises ValueError, as the reconstruction would not be
    exact.
    """
    grid = ens.grid
    model = grid.model
    if model.sigma > 0:
        raise ValueError(
            "the integrand reconstruction is exact only for pure-jump models (sigma = 0)"
        )
    prof = _real_profile(f, grid)
    dt = grid.dt
    drift = model.b - model.small_jump_drift
    eta = _eta_profile(model, prof)
    P = ens.n_paths
    jump_times = ens.jump_times
    jump_atoms = ens.jump_atoms

    m = np.ones(P, dtype=np.complex128)
    jump_sum = np.zeros(P, dtype=np.complex128)
    comp_sum = np.zeros(P, dtype=np.complex128)
    for k, cell in enumerate(_cell_events(ens)):
        z = 1j * prof[k] * drift + eta[k]
        phases = [np.exp(1j * prof[k] * x) for x, _ in model.atoms]
        lam_fac = sum(lam * (ph - 1.0) for ph, (_, lam) in zip(phases, model.atoms))
        t_cur = np.full(P, k * dt)
        if cell is not None:
            atom_phase = np.array(phases)
            for a, b in zip(cell.bounds[:-1], cell.bounds[1:]):
                rows = cell.paths[cell.rows[a:b]]
                events = cell.events[a:b]
                t_e = jump_times[events]
                grow, integral = _exp_and_integral(z, t_e - t_cur[rows])
                m_r = m[rows]
                comp_sum[rows] += _cmul(_cmul(lam_fac, m_r), integral)
                m_r = _cmul(m_r, grow)
                phase = atom_phase[jump_atoms[events]]
                jump_sum[rows] += _cmul(phase - 1.0, m_r)
                m[rows] = _cmul(m_r, phase)
                t_cur[rows] = t_e
        grow, integral = _exp_and_integral(z, (k + 1) * dt - t_cur)
        comp_sum += _cmul(_cmul(lam_fac, m), integral)
        m = _cmul(m, grow)
    diff = m - (1.0 + jump_sum - comp_sum)
    return np.hypot(diff.real, diff.imag)
