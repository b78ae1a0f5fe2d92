"""Pathwise stochastic integrals against the compensated noise.

Three engines, cross-validated in the tests:

* chain engine (`iterated_chain`): time-ordered integrals of a field chain,
  J(g_1, ..., g_n) = Int_{t_1 < ... < t_n} g_1(w_1) ... g_n(w_n) dM ... dM.
  Between events the state vector obeys a nilpotent triangular ODE driven by
  the compensator, solved in closed form per cell; jumps apply exact updates
  at their event times. Exact for pure-jump models; with a diffusion part
  (sigma > 0) it keeps the jump/compensator handling exact and adds an Euler
  left-point update for the diffusion part at each cell start, biased O(dt).

* power engine (`power_integrals`): the n-fold integrals of tensor powers
  I_n(f^(x)n) for any finite-activity model, through the per-cell
  factorization of the stochastic exponential generating function. Exact
  pathwise (heat-Hermite coefficients on the diffusion bin, shifted binomial
  coefficients on jump bins, truncated series product across cells).

* product formula (`product_integral`): for kernels vanishing on diagonals,
  the multiple integral is the plain contraction against products of cell
  increments.

First-order integrals, the stochastic (Doleans) exponential, and the
characteristic-function martingale with its integrand reconstruction live
here too. Every engine takes a PathEnsemble and returns one value per path;
a single path is a one-path ensemble.
"""
from __future__ import annotations

from math import factorial

import numpy as np

from .indices import MAX_LEVEL_COEFFS, GuardLimitError
from .levy import (
    CellGrid,
    PathEnsemble,
    StepField,
    cell_increments,
)

__all__ = [
    "stochastic_integral",
    "product_integral",
    "iterated_chain",
    "iterated_integral",
    "power_integrals",
    "doleans_exp",
    "exp_martingale_terminal",
    "exp_martingale_grid",
    "representation_residual",
]


def stochastic_integral(field: StepField, ens: PathEnsemble) -> np.ndarray:
    """First-order integral: sum of field values times cell increments."""
    if field.grid.spec() != ens.grid.spec():
        raise ValueError("field and paths live on different grids")
    vals = field.cell_values()
    inc = cell_increments(ens)
    return inc.astype(np.complex128) @ vals


def product_integral(kernel, ens: PathEnsemble) -> np.ndarray:
    """Contraction of an off-diagonal kernel against increment products.

    kernel is a dense (c, ..., c) array over the retained cells; any entry
    with two equal indices must vanish (the product formula does not see
    diagonal mass). Complexity is one tensor contraction per path block.
    """
    kern = np.asarray(kernel, dtype=np.complex128)
    c = ens.grid.n_cells
    if kern.ndim == 0:
        raise ValueError("kernel must have degree >= 1")
    if kern.shape != (c,) * kern.ndim:
        raise ValueError(
            f"kernel shape {kern.shape} does not match {kern.ndim} copies of {c} cells"
        )
    if kern.size > MAX_LEVEL_COEFFS:
        raise GuardLimitError(
            f"kernel carries {kern.size} coefficients, budget is {MAX_LEVEL_COEFFS}"
        )
    for a in range(kern.ndim):
        for b in range(a + 1, kern.ndim):
            diag = np.diagonal(kern, axis1=a, axis2=b)
            if np.any(diag != 0):
                raise ValueError(
                    "product integral requires the kernel to vanish on diagonals"
                )
    inc = cell_increments(ens).astype(np.complex128)
    out = np.empty(ens.n_paths, dtype=np.complex128)
    block = max(1, int(2_000_000 // max(kern.size // c, 1)))
    flat = kern.reshape(-1, c)
    for lo in range(0, ens.n_paths, block):
        hi = min(lo + block, ens.n_paths)
        part = flat @ inc[lo:hi].T  # (c^(n-1), P_block)
        n = kern.ndim - 1
        while n >= 1:
            part = part.reshape(c ** (n - 1), c, hi - lo)
            part = np.einsum("acp,pc->ap", part, inc[lo:hi])
            n -= 1
        out[lo:hi] = part.reshape(hi - lo)
    return out


def _transfer_matrix(comp: np.ndarray, delta: float) -> np.ndarray:
    """Closed-form flow of the compensator ODE z_j' = -comp[j-1] z_{j-1}."""
    n = comp.shape[0]
    L = np.eye(n + 1, dtype=np.complex128)
    for i in range(n + 1):
        prod = 1.0 + 0.0j
        for j in range(i + 1, n + 1):
            prod = prod * (-comp[j - 1])
            L[j, i] = prod * delta ** (j - i) / factorial(j - i)
    return L


def _grid_refinement(field_grid: CellGrid, path_grid: CellGrid) -> int:
    fs, ps = field_grid.spec(), path_grid.spec()
    if {k: v for k, v in fs.items() if k != "n_time"} != {
        k: v for k, v in ps.items() if k != "n_time"
    }:
        raise ValueError("field and path grids describe different models")
    if path_grid.n_time % field_grid.n_time:
        raise ValueError("path grid must refine the field grid")
    return path_grid.n_time // field_grid.n_time


def iterated_chain(fields: list[StepField], ens: PathEnsemble) -> np.ndarray:
    """Time-ordered chain integral J(fields[0], ..., fields[-1]).

    fields[0] is innermost (integrated first). All fields share one grid; the
    paths may live on a refinement of it (required for Euler resolution
    studies). The walk is exact when sigma = 0 and Euler in the diffusion
    part otherwise.
    """
    if not fields:
        raise ValueError("need at least one field")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid is not grid and f.grid.spec() != grid.spec():
            raise ValueError("chain fields live on different grids")
    refine = _grid_refinement(grid, ens.grid)

    n = len(fields)
    P = ens.n_paths
    K = ens.grid.n_time
    dt = ens.grid.dt
    rates = ens.grid.bin_rates  # nu per jump bin
    n_bins = ens.grid.n_bins

    # per field-cell compensator rates c_j = sum_b g_j(cell, b) nu_b
    field_vals = [f.values for f in fields]
    comp = np.empty((grid.n_time, n), dtype=np.complex128)
    for k in range(grid.n_time):
        for j in range(n):
            comp[k, j] = np.sum(field_vals[j][k, 1:n_bins] * rates)

    # jumps sorted by (path cell, path, time)
    cells = ens.jump_cells
    bins = ens.jump_bins
    order = np.lexsort((ens.jump_times, ens.jump_paths, cells))
    s_cells = cells[order]
    s_paths = ens.jump_paths[order]
    s_times = ens.jump_times[order]
    s_bins = bins[order]
    cell_start = np.searchsorted(s_cells, np.arange(K + 1))

    state = np.zeros((P, n + 1), dtype=np.complex128)
    state[:, 0] = 1.0
    sigma = ens.grid.model.sigma
    for k in range(K):
        kf = k // refine
        if ens.brownian is not None:
            db = sigma * ens.brownian[:, k]
            for j in range(n, 0, -1):
                g = field_vals[j - 1][kf, 0]
                if g != 0:
                    state[:, j] += g * db * state[:, j - 1]
        L = _transfer_matrix(comp[kf], dt)
        lo, hi = cell_start[k], cell_start[k + 1]
        if lo == hi:
            state = state @ L.T
            continue
        # the lexsort leaves each cell's paths sorted, so the distinct ones
        # start each run (np.unique would also import numpy.ma at first call)
        seg = s_paths[lo:hi]
        jumpy = seg[np.concatenate(([True], seg[1:] != seg[:-1]))]
        saved = state[jumpy].copy()
        state = state @ L.T
        row_of = {int(p): r for r, p in enumerate(jumpy)}
        t_left = k * dt
        t_right = (k + 1) * dt
        # walk each jumpy path's events inside this cell
        idx = lo
        while idx < hi:
            p = int(s_paths[idx])
            stop = idx
            while stop < hi and s_paths[stop] == p:
                stop += 1
            z = saved[row_of[p]]
            t_cur = t_left
            for e in range(idx, stop):
                t_e = float(s_times[e])
                if t_e > t_cur:
                    z = _transfer_matrix(comp[kf], t_e - t_cur) @ z
                    t_cur = t_e
                b = int(s_bins[e])
                for j in range(n, 0, -1):
                    g = field_vals[j - 1][kf, b]
                    if g != 0:
                        z[j] += g * z[j - 1]
            if t_right > t_cur:
                z = _transfer_matrix(comp[kf], t_right - t_cur) @ z
            state[p] = z
            idx = stop
    return state[:, n].copy()


def iterated_integral(field: StepField, n: int, ens: PathEnsemble) -> np.ndarray:
    """J_n of the tensor power of one field: iterated_chain([field] * n)."""
    if n < 1:
        raise ValueError("iterated integral needs n >= 1")
    return iterated_chain([field] * n, ens)


def _binomial_series(counts: np.ndarray, v: complex, n_max: int) -> np.ndarray:
    """Coefficients of (1 + v z)^N per path, truncated at degree n_max."""
    P = counts.shape[0]
    out = np.zeros((P, n_max + 1), dtype=np.complex128)
    out[:, 0] = 1.0
    binom = np.ones(P)
    for r in range(1, n_max + 1):
        binom = binom * (counts - (r - 1)) / r
        out[:, r] = binom * v**r
    return out


def _convolve_into(acc: np.ndarray, fac: np.ndarray) -> np.ndarray:
    n_max = acc.shape[1] - 1
    out = np.zeros_like(acc)
    for m in range(n_max + 1):
        for r in range(m + 1):
            col = fac[:, m - r] if fac.ndim == 2 else fac[m - r]
            out[:, m] += acc[:, r] * col
    return out


def power_integrals(field: StepField, n_max: int, ens: PathEnsemble) -> np.ndarray:
    """Exact I_n(field^(x)n) for n = 0..n_max, shape (P, n_max + 1).

    Coefficients of the stochastic exponential of z * field, multiplied by n!.
    Valid for any finite-activity model; per-cell factors only need the cell
    increments and jump counts, which the exact simulation provides.
    """
    grid = ens.grid
    if field.grid.spec() != grid.spec():
        raise ValueError("field and paths live on different grids")
    model = grid.model
    P = ens.n_paths
    K = grid.n_time
    dt = grid.dt
    acc = np.zeros((P, n_max + 1), dtype=np.complex128)
    acc[:, 0] = 1.0
    if n_max == 0:
        return acc
    counts = ens.cell_counts() if ens.jump_times.size else None
    expo = np.empty(n_max + 1, dtype=np.complex128)
    herm = np.zeros((P, n_max + 1), dtype=np.complex128)
    for k in range(K):
        if model.sigma > 0:
            v0 = field.values[k, 0]
            x = v0 * model.sigma * ens.brownian[:, k]
            s = v0 * v0 * model.sigma**2 * dt
            herm[:, 0] = 1.0
            herm[:, 1] = x
            for m in range(2, n_max + 1):
                herm[:, m] = (x * herm[:, m - 1] - (m - 1) * s * herm[:, m - 2]) / m
            acc = _convolve_into(acc, herm)
        for b in range(1, grid.n_bins):
            v = complex(field.values[k, b])
            a = grid.bin_rates[b - 1] * dt
            if v == 0:
                continue
            t = 1.0 + 0.0j
            for m in range(n_max + 1):
                expo[m] = t
                t = t * (-v * a) / (m + 1)
            if counts is None:
                acc = _convolve_into(acc, expo)
            else:
                binom = _binomial_series(counts[:, grid.column[k, b]], v, n_max)
                both = _convolve_into(binom, expo)
                acc = _convolve_into(acc, both)
    for m in range(n_max + 1):
        acc[:, m] *= factorial(m)
    return acc


def doleans_exp(field: StepField, ens: PathEnsemble) -> np.ndarray:
    """Stochastic exponential of the first-order integral of the field.

    exp(Y(T) - sigma^2/2 * Int f(s, 0)^2 ds) * Prod_jumps (1 + dY) exp(-dY),
    with the bilinear square in the diffusion correction (complex fields are
    fine) and dY the field value at each jump's cell.
    """
    grid = ens.grid
    if field.grid.spec() != grid.spec():
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
    if isinstance(f, StepField):
        if f.grid.spec() != grid.spec():
            raise ValueError("field and paths live on different grids")
        prof = f.values[:, 0]
    else:
        prof = np.asarray(f, dtype=np.complex128)
        if prof.shape != (grid.n_time,):
            raise ValueError(f"profile expects shape ({grid.n_time},)")
    if np.max(np.abs(prof.imag), initial=0.0) > 1e-14:
        raise ValueError("the characteristic-function martingale needs a real profile")
    return prof.real.copy()


def _eta_profile(model, prof: np.ndarray) -> np.ndarray:
    return np.array([model.symbol(u) for u in prof])


def exp_martingale_terminal(f, ens: PathEnsemble) -> np.ndarray:
    """M(T) = exp(i Int f dX + Int eta(f(s)) ds) per path.

    f is a real cell profile integrated against the raw increment dX (drift,
    diffusion, compensated small jumps, raw large jumps).
    """
    return exp_martingale_grid(f, ens)[:, -1].copy()


def exp_martingale_grid(f, ens: PathEnsemble) -> np.ndarray:
    """M at the grid times t_0..t_K, shape (P, K + 1); M(t_0) = 1."""
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
    out[:, 1:] = np.exp(steps)
    return out


def _expm1_over(z: complex, ell: float) -> complex:
    """(exp(z ell) - 1) / z, stable near z = 0."""
    w = z * ell
    if abs(w) < 1e-8:
        return ell * (1.0 + w / 2.0 + w * w / 6.0)
    return (np.exp(w) - 1.0) / z


def representation_residual(f, path: PathEnsemble) -> float:
    """Defect of the integrand reconstruction of M(T) - 1 on a one-path ensemble.

    Pure-jump models: exact event walk (residual at rounding scale), using
    psi(s, x) = (exp(i f(s) x) - 1) M(s-) against the compensated jump
    measure, with closed-form compensator integrals between events. With a
    diffusion component the reconstruction is the left-point Euler sum, so
    the residual only converges as the grid refines.
    """
    if path.n_paths != 1:
        raise ValueError(f"expected one path, got {path.n_paths}")
    grid = path.grid
    model = grid.model
    prof = _real_profile(f, grid)
    K, dt = grid.n_time, grid.dt
    drift = model.b - model.small_jump_drift
    eta = _eta_profile(model, prof)
    atoms = model.atoms
    jump_cells = path.jump_cells
    order = np.argsort(path.jump_times, kind="stable")

    if model.sigma == 0:
        m_cur = 1.0 + 0.0j
        jump_sum = 0.0 + 0.0j
        comp_sum = 0.0 + 0.0j
        by_cell: dict[int, list[int]] = {}
        for e in order:
            by_cell.setdefault(int(jump_cells[e]), []).append(int(e))
        for k in range(K):
            z = 1j * prof[k] * drift + eta[k]
            lam_fac = sum(
                lam * (np.exp(1j * prof[k] * x) - 1.0) for x, lam in atoms
            )
            t_cur = k * dt
            for e in by_cell.get(k, ()):
                t_e = float(path.jump_times[e])
                ell = t_e - t_cur
                comp_sum += lam_fac * m_cur * _expm1_over(z, ell)
                m_cur = m_cur * np.exp(z * ell)
                x = atoms[int(path.jump_atoms[e])][0]
                phase = np.exp(1j * prof[k] * x)
                jump_sum += (phase - 1.0) * m_cur
                m_cur = m_cur * phase
                t_cur = t_e
            ell = (k + 1) * dt - t_cur
            comp_sum += lam_fac * m_cur * _expm1_over(z, ell)
            m_cur = m_cur * np.exp(z * ell)
        recon = 1.0 + jump_sum - comp_sum
        return float(abs(m_cur - recon))

    # diffusion present: left-point Euler reconstruction on the grid
    mgrid = exp_martingale_grid(prof, path)[0]
    recon = 1.0 + 0.0j
    recon += np.sum(1j * prof * mgrid[:-1] * model.sigma * path.brownian[0])
    lam_fac = np.array(
        [
            sum(lam * (np.exp(1j * u * x) - 1.0) for x, lam in atoms)
            for u in prof
        ]
    )
    recon -= np.sum(lam_fac * mgrid[:-1]) * dt
    for e in order:
        k = int(jump_cells[e])
        x = atoms[int(path.jump_atoms[e])][0]
        recon += (np.exp(1j * prof[k] * x) - 1.0) * mgrid[k]
    return float(abs(mgrid[-1] - recon))
