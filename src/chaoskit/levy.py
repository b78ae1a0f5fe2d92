"""Finite-activity jump diffusions, their cell grids, and exact simulation.

A model is a drift b, a diffusion coefficient sigma, and finitely many jump
atoms (x_j, lambda_j). The driving noise is coordinatized over a regular time
grid crossed with mark bins: bin 0 carries the diffusion component, the
remaining bins partition the atoms. Cell masses are

    mu(k, 0)   = sigma^2 * dt
    mu(k, bin) = nu(bin) * dt,   nu(bin) = sum of atom intensities in the bin

and only positive-mass cells embed into the one-particle space. Simulation is
exact: Gaussian increments per time cell plus per-atom Poisson counts with
uniform jump times in (0, T].

The layout: the retained cells run time-major over the positive-mass bins.
Cell i is grid.cells[i] = (cell_time[i], cell_bin[i]), and grid.column[k, b]
is the index of cell (k, b), or -1 for a massless bin. A path's jump counts
over that layout are `PathEnsemble.cell_counts()`, and `cell_increments`
compensates the same counts; other modules read these, not their own maps.

The stream: path i draws from Philox with key `seed` and counter (0, 0, i, 0),
the state `Philox(key=seed).jumped(i)` starts from. It draws its Gaussian
increments first, then per atom in order a Poisson count and that many
uniforms. One generator is repositioned to each path's state, so path i is
identical no matter how the paths are batched; `sample_ensemble(..., first=i)`
draws paths from i on, and `PathEnsemble.paths(lo, hi)` takes a range of an
ensemble. STREAM_VERSION names this layout; a change to it bumps the
version, which every report bundle records in env.json.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.random  # numpy imports it lazily at first use; import it with levy

__all__ = [
    "STREAM_VERSION",
    "LevyModel",
    "CellGrid",
    "StepField",
    "PathEnsemble",
    "sample_ensemble",
    "cell_increments",
    "terminal_value",
    "brownian_preset",
    "poisson_preset",
]


# 1: Philox key `seed`, counter (0, 0, i, 0) for path i; Gaussian increments,
# then per atom a Poisson count and that many uniform jump times
STREAM_VERSION = 1


@dataclass(frozen=True)
class LevyModel:
    """Finite-activity model: drift, diffusion, jump atoms, horizon."""

    b: float = 0.0
    sigma: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()
    horizon: float = 1.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")
        sizes = [x for x, _ in self.atoms]
        for x, lam in self.atoms:
            if x == 0:
                raise ValueError("atom size must be nonzero")
            if lam <= 0:
                raise ValueError("atom intensity must be > 0")
        if len(set(sizes)) != len(sizes):
            raise ValueError("atom sizes must be distinct")

    def symbol(self, u: float) -> complex:
        """Characteristic exponent eta(u); E[exp(i u X(t))] = exp(-t eta(u)).

        eta(u) = -i b u + sigma^2 u^2 / 2
                 + sum_j lambda_j (1 - exp(i u x_j) + i u x_j [|x_j| < 1]).
        """
        u = float(u)
        total = -1j * self.b * u + 0.5 * self.sigma**2 * u**2
        for x, lam in self.atoms:
            term = 1.0 - np.exp(1j * u * x)
            if abs(x) < 1.0:
                term = term + 1j * u * x
            total = total + lam * term
        return complex(total)

    @property
    def small_jump_drift(self) -> float:
        """Compensator drift removed from the small-jump part."""
        return sum(lam * x for x, lam in self.atoms if abs(x) < 1.0)

    @property
    def mean_slope(self) -> float:
        """E[X(t)] / t under the compensated small-jump bookkeeping."""
        return self.b + sum(lam * x for x, lam in self.atoms if abs(x) >= 1.0)


@dataclass(eq=False)
class CellGrid:
    """Regular time grid crossed with mark bins.

    atom_groups[b] lists the atom indices carried by jump bin b+1; bin 0 is
    always the diffusion bin (mass zero when sigma = 0). Every atom must be
    covered exactly once.
    """

    model: LevyModel
    n_time: int
    atom_groups: tuple[tuple[int, ...], ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n_time < 1:
            raise ValueError("need at least one time cell")
        n_atoms = len(self.model.atoms)
        if self.atom_groups is None:
            self.atom_groups = tuple((j,) for j in range(n_atoms))
        else:
            self.atom_groups = tuple(tuple(int(j) for j in g) for g in self.atom_groups)
        seen: list[int] = []
        for g in self.atom_groups:
            if not g:
                raise ValueError("empty atom group")
            seen.extend(g)
        if sorted(seen) != list(range(n_atoms)):
            raise ValueError("atom groups must cover every atom exactly once")
        self.dt = self.model.horizon / self.n_time
        self.bin_rates = np.array(
            [sum(self.model.atoms[j][1] for j in g) for g in self.atom_groups]
        )
        self.atom_bin = np.zeros(n_atoms, dtype=np.int64)
        for bidx, g in enumerate(self.atom_groups):
            for j in g:
                self.atom_bin[j] = bidx + 1
        # column 0 is the diffusion bin
        masses = np.empty(self.n_bins)
        masses[0] = self.model.sigma**2 * self.dt
        masses[1:] = self.bin_rates * self.dt
        self.bin_masses = masses
        # retained cells run time-major over the positive-mass bins
        retained = np.flatnonzero(masses > 0)
        self.cell_time = np.repeat(np.arange(self.n_time), retained.size)
        self.cell_bin = np.tile(retained, self.n_time)
        self.column = np.full((self.n_time, self.n_bins), -1, dtype=np.int64)
        self.column[self.cell_time, self.cell_bin] = np.arange(self.cell_time.size)
        for table in (self.cell_time, self.cell_bin, self.column):
            table.setflags(write=False)
        self.cells = tuple(zip(self.cell_time.tolist(), self.cell_bin.tolist()))
        self.cell_masses = masses[self.cell_bin]
        self.cell_masses.setflags(write=False)

    @property
    def n_bins(self) -> int:
        return 1 + len(self.atom_groups)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def cell_of_time(self, t: float) -> int:
        """Time-cell index containing t; the last cell is closed at T."""
        if not 0 <= t <= self.model.horizon:
            raise ValueError("time outside [0, horizon]")
        return min(int(t / self.dt), self.n_time - 1)

    def spec(self) -> dict:
        return {
            "b": self.model.b,
            "sigma": self.model.sigma,
            "atoms": [[x, lam] for x, lam in self.model.atoms],
            "horizon": self.model.horizon,
            "n_time": self.n_time,
            "atom_groups": [list(g) for g in self.atom_groups],
        }

    def same_as(self, other: "CellGrid") -> bool:
        """Whether values on the two grids may meet: the same grid, or equal specs."""
        return other is self or other.spec() == self.spec()


@dataclass(eq=False)
class StepField:
    """Cell-constant complex field; values has shape (n_time, n_bins).

    Column 0 rides the diffusion bin. Off-support values (zero-mass bins) are
    allowed but carry no mass in embeddings or integrals. The scalar time
    profile of a field is its diffusion-bin column.
    """

    grid: CellGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128)
        shape = (self.grid.n_time, self.grid.n_bins)
        if arr.shape != shape:
            raise ValueError(f"step field expects shape {shape}, got {arr.shape}")
        self.values = arr

    @classmethod
    def from_columns(cls, grid: CellGrid, **columns) -> "StepField":
        """Build from per-bin time profiles: diffusion=..., bins={b: profile}."""
        out = np.zeros((grid.n_time, grid.n_bins), dtype=np.complex128)
        diff = columns.pop("diffusion", None)
        bins = columns.pop("bins", {})
        if columns:
            raise ValueError(f"unknown arguments {sorted(columns)}")
        if diff is not None:
            out[:, 0] = np.asarray(diff, dtype=np.complex128)
        for b, profile in bins.items():
            if not 1 <= b < grid.n_bins:
                raise ValueError(f"bin {b} out of range")
            out[:, b] = np.asarray(profile, dtype=np.complex128)
        return cls(grid, out)

    def cell_values(self) -> np.ndarray:
        """Values over the retained cells, aligned with grid.cells."""
        return self.values[self.grid.cell_time, self.grid.cell_bin]

    def norm_sq(self) -> float:
        """Squared L2(mu) norm over the retained cells."""
        vals = self.cell_values()
        return float(np.sum(np.abs(vals) ** 2 * self.grid.cell_masses))

    def inner(self, other: "StepField") -> complex:
        """L2(mu) pairing, conjugate linear on the left."""
        if not other.grid.same_as(self.grid):
            raise ValueError("step fields live on different grids")
        a = self.cell_values()
        b = other.cell_values()
        return complex(np.sum(np.conj(a) * b * self.grid.cell_masses))


@dataclass(eq=False)
class PathEnsemble:
    """n_paths exact draws packed for vectorized evaluation.

    Jump records are CSR style: path i owns jump_times[offsets[i]:offsets[i+1]].
    A single path is a one-path ensemble.
    """

    grid: CellGrid
    n_paths: int
    brownian: np.ndarray | None
    jump_times: np.ndarray
    jump_atoms: np.ndarray
    jump_paths: np.ndarray
    offsets: np.ndarray

    def paths(self, lo: int, hi: int) -> "PathEnsemble":
        """Paths lo..hi-1 as their own ensemble, on views of these arrays."""
        if not 0 <= lo < hi <= self.n_paths:
            raise ValueError(f"path range [{lo}, {hi}) outside [0, {self.n_paths})")
        j0, j1 = self.offsets[lo], self.offsets[hi]
        return PathEnsemble(
            self.grid,
            hi - lo,
            None if self.brownian is None else self.brownian[lo:hi],
            self.jump_times[j0:j1],
            self.jump_atoms[j0:j1],
            self.jump_paths[j0:j1] - lo,
            self.offsets[lo : hi + 1] - j0,
        )

    @property
    def model(self) -> LevyModel:
        return self.grid.model

    @property
    def jump_cells(self) -> np.ndarray:
        if self.jump_times.size == 0:
            return np.zeros(0, dtype=np.int64)
        return np.minimum(
            (self.jump_times / self.grid.dt).astype(np.int64), self.grid.n_time - 1
        )

    @property
    def jump_bins(self) -> np.ndarray:
        return self.grid.atom_bin[self.jump_atoms]

    def _jump_columns(self) -> np.ndarray:
        """Retained-cell index of each jump, aligned with jump_times."""
        return self.grid.column[self.jump_cells, self.jump_bins]

    def cell_counts(self) -> np.ndarray:
        """Jump counts over the retained cells, float (n_cells, n_paths).

        Cell-major: row w holds every path's count in cell w, contiguous, as
        the dense chaos route reads it (one cell at a time over all paths).
        The power engine reads the jump records directly instead.
        """
        out = np.zeros((self.grid.n_cells, self.n_paths))
        np.add.at(out, (self._jump_columns(), self.jump_paths), 1.0)
        return out


def sample_ensemble(
    model: LevyModel, grid: CellGrid, seed: int, n_paths: int, first: int = 0
) -> PathEnsemble:
    """Draw paths first..first+n_paths-1 of the stream started at `seed`.

    Path i's state is the one Philox(key=seed).jumped(i) starts from: counter
    (0, 0, i, 0). One generator is repositioned to each path, and the jump
    records are packed once for the ensemble.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    # the stream writes the path index into one 64-bit counter word
    if first < 0 or first + n_paths > 2**64:
        raise ValueError("path indices must lie in [0, 2**64)")
    if grid.model != model:
        raise ValueError("grid was built for a different model")
    T = model.horizon
    rates = [lam * T for _, lam in model.atoms]
    bitgen = np.random.Philox(key=seed)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    counter = state["state"]["counter"]
    brownian = (
        np.empty((n_paths, grid.n_time)) if model.sigma > 0 else None
    )
    sd = np.sqrt(grid.dt)
    counts = np.zeros((n_paths, len(rates)), dtype=np.int64)
    uniforms = []
    for i in range(n_paths):
        counter[2] = first + i
        bitgen.state = state
        if brownian is not None:
            brownian[i] = rng.normal(0.0, sd, grid.n_time)
        for j, rate in enumerate(rates):
            count = int(rng.poisson(rate))
            if count:
                counts[i, j] = count
                uniforms.append(rng.random(count))
    per_path = counts.sum(axis=1)
    offsets = np.zeros(n_paths + 1, dtype=np.int64)
    np.cumsum(per_path, out=offsets[1:])
    jump_paths = np.repeat(np.arange(n_paths, dtype=np.int64), per_path)
    if uniforms:
        # uniform on (0, T]; drawn path-major, atom by atom within a path
        times = T * (1.0 - np.concatenate(uniforms))
        atoms = np.repeat(
            np.tile(np.arange(len(rates), dtype=np.int64), n_paths), counts.ravel()
        )
        # stable within a path, so tied times keep atom order
        order = np.lexsort((times, jump_paths))
        jump_times = times[order]
        jump_atoms = atoms[order]
    else:
        jump_times = np.zeros(0)
        jump_atoms = np.zeros(0, dtype=np.int64)
    return PathEnsemble(
        grid, n_paths, brownian, jump_times, jump_atoms, jump_paths, offsets
    )


def cell_increments(ens: PathEnsemble) -> np.ndarray:
    """Martingale cell increments over the retained cells, (n_paths, n_cells).

    Diffusion cells carry sigma * Delta B; a jump cell carries its jump count
    minus the compensator nu(bin) * dt.
    """
    grid = ens.grid
    # compensators everywhere; a retained diffusion bin is overwritten below
    out = np.tile(-grid.cell_masses, (ens.n_paths, 1))
    if grid.column[0, 0] >= 0:
        # retained cells run time-major with bin 0 first, so the diffusion
        # cells are every (cells per time)-th column
        out[:, :: grid.n_cells // grid.n_time] = grid.model.sigma * ens.brownian
    if ens.jump_times.size:
        np.add.at(out, (ens.jump_paths, ens._jump_columns()), 1.0)
    return out


def terminal_value(ens: PathEnsemble) -> np.ndarray:
    """X(T) per path, assembled with compensated small jumps.

    X(T) = b T + sigma B(T) + sum of jump sizes - T * (small-jump compensator).
    """
    model = ens.grid.model
    out = np.full(
        ens.n_paths,
        model.b * model.horizon - model.small_jump_drift * model.horizon,
    )
    if ens.brownian is not None:
        out += model.sigma * ens.brownian.sum(axis=1)
    if ens.jump_times.size:
        sizes = np.array([x for x, _ in model.atoms])[ens.jump_atoms]
        np.add.at(out, ens.jump_paths, sizes)
    return out


def brownian_preset(horizon: float = 1.0) -> LevyModel:
    """Standard diffusion: b = 0, sigma = 1, no atoms."""
    return LevyModel(b=0.0, sigma=1.0, atoms=(), horizon=horizon)


def poisson_preset(lam: float = 1.0, horizon: float = 1.0) -> LevyModel:
    """Compensated standard Poisson: single atom at x = 1 with intensity lam."""
    return LevyModel(b=0.0, sigma=0.0, atoms=((1.0, float(lam)),), horizon=horizon)
