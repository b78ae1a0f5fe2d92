"""Pathwise stochastic integrals against the compensated noise.

Two engines, cross-validated in the tests:

* chain engine (`iterated_chain`): time-ordered integrals of a field chain,
  J(g_1, ..., g_n) = Int_{t_1 < ... < t_n} g_1(w_1) ... g_n(w_n) dM ... dM.
  Between events the state vector obeys a nilpotent triangular ODE driven by
  the compensator, solved in closed form; jumps apply exact updates at their
  event times. One sort of the jumps by (cell, path, time) gives runs, one
  path's jumps in one cell, and each run's whole-cell transfer (flows and
  jump updates in time order) is composed for all runs at once, one jump
  rank at a time. A walk over the cells then carries every path by the
  cell's flow, or by its run's transfer. The Python work grows with the most
  jumps of one path in one cell plus K, not with the number of jumps or
  paths; complex products are written in real arithmetic, with no BLAS, so a
  path's bits depend only on its own draws, not on its batch or the host's
  vector kernels. Exact for pure-jump models; with a diffusion part
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
event rank, through the chain engine's runs) live here too. Every
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
# values up to rounding; 3: iterated_chain composes one transfer per run in
# real arithmetic, so the chain's values moved in their last digits. A change
# that moves record values bumps it, and every report bundle records it in
# env.json.
ENGINE_VERSION = 3


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


class _Runs(NamedTuple):
    """The ensemble's jumps in runs, from one sort by (cell, path, time).

    A run is one path's jumps in one cell. Run u belongs to path paths[u] and
    cell cells[u] and has lengths[u] jumps; its r-th jump in time order is
    jumps[first[u] + r], an index into the ensemble's jump arrays, and jumps
    lists every jump in (cell, path, time) order. Runs are grouped by cell,
    cell k holding runs bounds[k]:bounds[k + 1], and the longest come first
    inside a cell, so a cell's runs with more than r jumps lead its group.
    """

    jumps: np.ndarray
    first: np.ndarray
    lengths: np.ndarray
    paths: np.ndarray
    cells: np.ndarray
    bounds: list[int]


def _runs(ens: PathEnsemble) -> _Runs:
    """Group the ensemble's jumps into runs (see `_Runs`)."""
    cells = ens.jump_cells
    jumps = np.lexsort((ens.jump_times, ens.jump_paths, cells))
    s_cells = cells[jumps]
    s_paths = ens.jump_paths[jumps]
    new_run = np.ones(s_cells.size, dtype=bool)
    new_run[1:] = (s_cells[1:] != s_cells[:-1]) | (s_paths[1:] != s_paths[:-1])
    first = np.flatnonzero(new_run)
    lengths = np.diff(first, append=s_cells.size)
    # by cell, and longest first inside a cell; ties keep path order
    by = np.lexsort((-lengths, s_cells[first]))
    first, lengths = first[by], lengths[by]
    run_cells = s_cells[first]
    bounds = np.searchsorted(run_cells, np.arange(ens.grid.n_time + 1)).tolist()
    return _Runs(jumps, first, lengths, s_paths[first], run_cells, bounds)


# The chain engine's state per path is the vector of orders 0..n of the running
# chain, held as real and imaginary rows (one row per order). Order 0 is the
# constant 1, so it is not stored: the transfers below add its terms instead
# of multiplying by it. Every complex product is spelled out in real arithmetic
# (a * b = (ar br - ai bi) + (ar bi + ai br) i, then added), and a complex value
# times a real one scales both parts, so each value has the bits of the same
# steps taken in Python scalars, whatever the batch and the host's vector units.


def _transfer(M: dict, vr, vi, lo: int) -> None:
    """v <- M v in place for a unit lower-triangular M, v_lo being 1.

    M maps (j, l), j > l >= lo, to the entry's (real, imaginary) parts,
    scalars or arrays; an absent entry is zero. Row j, from n down to lo + 1,
    becomes v_j + M[j, lo] + sum_{lo < l < j} M[j, l] v_l, summed in that
    order; vr[j] and vi[j] are rows, and rows lo and below are not read. A
    jump update v_j += g_j v_{j-1} is the M with only the entries (j, j-1).
    """
    for j in range(len(vr) - 1, lo, -1):
        rj, ij = vr[j], vi[j]
        for l in range(lo, j):
            e = M.get((j, l))
            if e is None:
                continue
            mr, mi = e
            if l == lo:
                rj += mr
                ij += mi
            else:
                rj += mr * vr[l] - mi * vi[l]
                ij += mr * vi[l] + mi * vr[l]


def _compensator_weights(fields: list[StepField], grid: CellGrid):
    """Weights of the compensator flow per cell, real and imaginary parts (n+1, n+1, K).

    The flow of z_j' = -c_j z_{j-1} over a gap delta has entry (j, l) equal
    to W[j, l] delta^(j-l) / (j-l)! below the diagonal, with
    W[j, l] = prod_{l < i <= j} (-c_i) multiplied up as Python complex
    scalars. The rates c_j = sum_b g_j(cell, b) nu_b are summed over the jump
    bins in order, in real arithmetic.
    """
    n = len(fields)
    rates = grid.bin_rates.tolist()  # nu per jump bin
    vals = np.stack([f.values for f in fields])  # (n, K, n_bins)
    c_re = np.zeros(vals.shape[:2])
    c_im = np.zeros(vals.shape[:2])
    for b, nu in enumerate(rates, start=1):
        c_re += vals[:, :, b].real * nu
        c_im += vals[:, :, b].imag * nu
    W = np.zeros((n + 1, n + 1, grid.n_time), dtype=np.complex128)
    for k, (neg_re, neg_im) in enumerate(zip((-c_re).T.tolist(), (-c_im).T.tolist())):
        for lo in range(n + 1):
            prod = 1.0 + 0.0j
            for j in range(lo + 1, n + 1):
                prod = prod * complex(neg_re[j - 1], neg_im[j - 1])
                W[j, lo, k] = prod
    return W.real.copy(), W.imag.copy()


def _flow_entries(wr, wi, delta) -> dict:
    """The compensator flow's entries over gaps delta, {(j, l): (real, imaginary)}.

    Entry (j, l) is W[j, l] delta^(j-l) / (j-l)!, for the weights W of
    `_compensator_weights` and one gap per weight column; the powers come
    from products delta * delta, not from an array power.
    """
    n = wr.shape[0] - 1
    pw, q = delta, [None]
    for p in range(1, n + 1):
        q.append(pw / factorial(p))
        pw = pw * delta
    return {
        (j, l): (wr[j, l] * q[j - l], wi[j, l] * q[j - l])
        for j in range(1, n + 1)
        for l in range(j)
    }


def _run_transfers(runs: _Runs, wr, wi, fields, ens: PathEnsemble) -> dict:
    """The whole-cell transfer of every run, {(j, l): (real, imaginary)} over runs.

    Run u's transfer is T = F(right - t_m) J_m ... F(t_2 - t_1) J_1 F(t_1 -
    left) over its cell [left, right], with F the compensator flow and J_r the
    update of its r-th jump; a gap is measured from the later of the cell's
    left edge and the previous jump, and is never negative. All runs are
    composed at once, rank by rank, so the Python steps number the most jumps
    of one run plus one. Each entry (j > l) is an array in run order.
    """
    n = wr.shape[0] - 1
    dt = ens.grid.dt
    # every jump in (cell, path, time) order, and the gap that follows it
    cells = ens.jump_cells[runs.jumps]
    times = ens.jump_times[runs.jumps]
    nxt = (cells + 1) * dt
    same = np.ones(cells.size, dtype=bool)
    same[runs.first] = False
    nxt[:-1][same[1:]] = times[1:][same[1:]]
    gap_after = np.maximum(nxt - np.maximum(cells * dt, times), 0.0)
    g = [f.values[cells, ens.jump_bins[runs.jumps]] for f in fields]
    g = [(v.real.copy(), v.imag.copy()) for v in g]

    # composed longest run first, so the runs of rank r are a prefix
    by_len = np.argsort(-runs.lengths, kind="stable")
    first = runs.first[by_len]
    alive = by_len.size - np.cumsum(np.bincount(runs.lengths))
    run_cells = runs.cells[by_len]
    wr, wi = wr[:, :, run_cells], wi[:, :, run_cells]
    T = _flow_entries(wr, wi, np.maximum(times[first] - cells[first] * dt, 0.0))
    for r in range(int(runs.lengths.max())):
        m = int(alive[r])  # runs with more than r jumps
        ev = first[:m] + r
        jump = {(j, j - 1): (gr[ev], gi[ev]) for j, (gr, gi) in enumerate(g, start=1)}
        F = _flow_entries(wr[:, :, :m], wi[:, :, :m], gap_after[ev])
        for l in range(n):
            col_r = [None] * (l + 1) + [T[j, l][0][:m] for j in range(l + 1, n + 1)]
            col_i = [None] * (l + 1) + [T[j, l][1][:m] for j in range(l + 1, n + 1)]
            _transfer(jump, col_r, col_i, l)
            _transfer(F, col_r, col_i, l)
    # back to the runs' own order
    back = np.empty_like(by_len)
    back[by_len] = np.arange(by_len.size)
    return {key: (re[back], im[back]) for key, (re, im) in T.items()}


def iterated_chain(fields: list[StepField], ens: PathEnsemble) -> np.ndarray:
    """Time-ordered chain integral J(fields[0], ..., fields[-1]).

    fields[0] is innermost (integrated first). Every field lives on the
    paths' grid. Cell by cell, every path takes the Euler step of the
    diffusion part (when sigma > 0) and then the compensator flow over the
    cell; a path with jumps in the cell takes its run's whole-cell transfer
    (`_run_transfers`) in place of the flow. The Python work grows with the
    most jumps of one path in one cell plus K, and a path's bits depend only
    on its own draws. Exact when sigma = 0, Euler in the diffusion part
    otherwise.
    """
    if not fields:
        raise ValueError("need at least one field")
    grid = ens.grid
    if not all(f.grid.same_as(grid) for f in fields):
        raise ValueError("field and paths live on different grids")

    n = len(fields)
    wr, wi = _compensator_weights(fields, grid)
    # the flow over each whole cell, its zero entries left out
    cell_flow = [{} for _ in range(grid.n_time)]
    for key, (fr, fi) in _flow_entries(wr, wi, grid.dt).items():
        for k, e in enumerate(zip(fr.tolist(), fi.tolist())):
            if e != (0.0, 0.0):
                cell_flow[k][key] = e
    runs = _runs(ens)
    T = _run_transfers(runs, wr, wi, fields, ens) if runs.first.size else {}

    sigma = grid.model.sigma
    diffusion = np.stack([f.values[:, 0] for f in fields], axis=1).tolist()  # (K, n)
    sr = np.zeros((n + 1, ens.n_paths))
    si = np.zeros((n + 1, ens.n_paths))
    for k in range(grid.n_time):
        if ens.brownian is not None:
            db = sigma * ens.brownian[:, k]
            euler = {
                (j, j - 1): (g.real * db, g.imag * db)
                for j, g in enumerate(diffusion[k], start=1)
                if g
            }
            _transfer(euler, sr, si, 0)
        lo, hi = runs.bounds[k], runs.bounds[k + 1]
        if lo < hi:
            rows = runs.paths[lo:hi]
            vr, vi = sr[:, rows], si[:, rows]
        _transfer(cell_flow[k], sr, si, 0)
        if lo < hi:
            _transfer({key: (re[lo:hi], im[lo:hi]) for key, (re, im) in T.items()}, vr, vi, 0)
            sr[:, rows] = vr
            si[:, rows] = vi
    out = np.empty(ens.n_paths, dtype=np.complex128)
    out.real = sr[n]
    out.imag = si[n]
    return out


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
    runs = _runs(ens)
    for k in range(grid.n_time):
        z = 1j * prof[k] * drift + eta[k]
        phases = [np.exp(1j * prof[k] * x) for x, _ in model.atoms]
        lam_fac = sum(lam * (ph - 1.0) for ph, (_, lam) in zip(phases, model.atoms))
        t_cur = np.full(P, k * dt)
        lo, hi = runs.bounds[k], runs.bounds[k + 1]
        if lo < hi:
            atom_phase = np.array(phases)
            lengths = runs.lengths[lo:hi]
            # rank by rank: every path with more than r jumps here takes its r-th
            for r in range(int(lengths[0])):
                end = lo + int(np.count_nonzero(lengths > r))
                rows = runs.paths[lo:end]
                events = runs.jumps[runs.first[lo:end] + r]
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
