"""Locate and characterize magnetic trap minima.

The trapping potential is U(r) = zeeman_slope * |B(r)| plus an optional
gravity term -m g.r.  Minima are found by Nelder-Mead multistart from a
3x3x3 seed lattice followed by finite-difference Newton polish; curvatures
come from a step-refined finite-difference Hessian.

Numerical defaults (documented): polish gradient step 1e-8 m, Hessian
starting step 1 um halved until eigenvalues move < 0.5%, gradient tolerance
1e-26 J/m (about 1e-5 G/um in field units for the Rb87 |2,2> slope; the
practical floor of double-precision finite differences at these energy
scales).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .errors import ChipError, ConvergenceError, SaddlePointError
from .fields import BiotSavartModel
from .geometry import AtomSpecies, CurrentConfig, Vec3

GRAD_TOL = 1e-26       # J/m
_POLISH_GRAD_STEP = 1e-8   # m
_POLISH_HESS_STEP = 5e-7   # m
_STEP_TOL = 1e-13      # m


@dataclass(frozen=True)
class PotentialDef:
    """Scalar potential U(r) with the species it applies to.

    ``energy`` maps a 3-vector (m) to joules; ``field`` optionally returns
    the magnetic field vector backing the potential (None for synthetic
    potentials).  Instances are immutable and safe to share across workers.
    """

    energy: Callable[[np.ndarray], float]
    species: AtomSpecies
    field: Callable[[np.ndarray], np.ndarray] | None = None
    energy_batch: Callable[[np.ndarray], np.ndarray] | None = None  # (N,3) -> (N,)
    gravity_enabled: bool = False
    surface_y: float = 0.0


def magnetic_potential(model: BiotSavartModel, currents: CurrentConfig,
                       species: AtomSpecies, gravity: bool = False) -> PotentialDef:
    """Zeeman potential of the layout's field, optionally with gravity."""
    g = np.asarray(species.gravity)

    def energy(r: np.ndarray) -> float:
        B = model.field(currents, r)[0]
        u = species.zeeman_slope * float(np.linalg.norm(B))
        if gravity:
            u -= species.mass * float(np.dot(g, np.asarray(r, dtype=float)))
        return u

    def energy_batch(points: np.ndarray) -> np.ndarray:
        """U at each point, inf inside a conductor; the field is evaluated
        outside conductors only."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        outside = model.conductor_index(points) < 0
        u = np.full(len(points), np.inf)
        B = model.field(currents, points[outside], check_domain=False)
        u[outside] = species.zeeman_slope * np.linalg.norm(B, axis=1)
        if gravity:
            u = u - species.mass * (points @ g)
        return u

    def field(r: np.ndarray) -> np.ndarray:
        return model.field(currents, r)[0]

    return PotentialDef(energy=energy, species=species, field=field,
                        energy_batch=energy_batch,
                        gravity_enabled=gravity, surface_y=model.layout.surface_y)


def potential_at(pdef: PotentialDef, point) -> float:
    """U at ``point`` in joules."""
    return float(pdef.energy(np.asarray(point, dtype=float)))


@dataclass(frozen=True)
class TrapCharacterization:
    """Minimum location plus optional curvature and depth information."""

    minimum: Vec3
    bottom_field: float            # T; nan for synthetic potentials
    height_above_chip: float       # m
    grad_norm: float
    frequencies: tuple[float, float, float] | None = None  # Hz, ascending
    axes: tuple[Vec3, Vec3, Vec3] | None = None
    depth: float | None = None     # J
    depth_equivalent_gauss: float | None = None
    depth_is_lower_bound: bool = False

    def __post_init__(self) -> None:
        if self.frequencies is not None:
            f = np.asarray(self.frequencies)
            if np.any(f < 0.0) or np.any(np.diff(f) < 0.0):
                raise ValueError("frequencies must be nonnegative and ascending")
            axes = np.asarray(self.axes)
            if not np.allclose(axes @ axes.T, np.eye(3), atol=1e-10):
                raise ValueError("axes must be orthonormal within 1e-10")


def _fd_gradient(f, x: np.ndarray, h: float) -> np.ndarray:
    g = np.zeros(3)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def _fd_hessian(f, x: np.ndarray, h: float) -> np.ndarray:
    H = np.zeros((3, 3))
    f0 = f(x)
    e = np.eye(3) * h
    for i in range(3):
        H[i, i] = (f(x + e[i]) - 2.0 * f0 + f(x - e[i])) / h**2
        for j in range(i + 1, 3):
            H[i, j] = H[j, i] = (
                f(x + e[i] + e[j]) - f(x + e[i] - e[j])
                - f(x - e[i] + e[j]) + f(x - e[i] - e[j])
            ) / (4.0 * h * h)
    return H


def find_trap_minimum(pdef: PotentialDef, seed_point,
                      lattice_halfwidth: float = 20e-6,
                      domain_halfwidth: float = 500e-6,
                      grad_tol: float = GRAD_TOL,
                      max_polish: int = 40,
                      n_starts: int = 4) -> TrapCharacterization:
    """Local minimizer of U near ``seed_point``.

    Multistart over a 3x3x3 lattice (spacing ``lattice_halfwidth``); local
    descent runs from the ``n_starts`` lowest lattice points and the winner
    is the lowest-energy converged candidate, ties broken by lexicographic
    position.  Raises ConvergenceError if no start converges and reports an
    escape if the winner leaves the seed-centred domain box.
    """
    seed = np.asarray(seed_point, dtype=float)
    lo, hi = seed - domain_halfwidth, seed + domain_halfwidth

    def U(x: np.ndarray) -> float:
        if np.any(x < lo) or np.any(x > hi):
            return np.inf
        try:
            return pdef.energy(x)
        except ChipError:
            return np.inf

    offsets = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))
    lattice = seed + offsets * lattice_halfwidth
    scored = sorted(
        ((U(p), tuple(p)) for p in lattice), key=lambda c: (c[0], c[1])
    )
    starts = [np.asarray(p) for u, p in scored[:n_starts] if np.isfinite(u)]

    candidates: list[tuple[float, tuple[float, ...], float]] = []
    for start in starts:
        res = minimize(U, start, method="Nelder-Mead",
                       options=dict(xatol=1e-10, fatol=0.0, maxiter=400,
                                    maxfev=800))
        x = np.asarray(res.x, dtype=float)
        if not np.isfinite(U(x)):
            continue
        x, gnorm = _newton_polish(U, x, grad_tol, max_polish)
        if gnorm <= 10.0 * grad_tol:
            candidates.append((U(x), tuple(x), gnorm))

    if not candidates:
        raise ConvergenceError("no trap minimum found within the iteration budget")
    candidates.sort(key=lambda c: (c[0], c[1]))
    u_min, x_min, gnorm = candidates[0]
    x_arr = np.asarray(x_min)
    if np.any(np.abs(x_arr - seed) >= domain_halfwidth * (1.0 - 1e-9)):
        raise ConvergenceError("trap minimum escaped the search domain")

    if pdef.field is not None:
        bottom = float(np.linalg.norm(pdef.field(x_arr)))
    else:
        bottom = float("nan")
    return TrapCharacterization(
        minimum=tuple(x_min),
        bottom_field=bottom,
        height_above_chip=float(x_min[1] - pdef.surface_y),
        grad_norm=gnorm,
    )


def _newton_polish(U, x: np.ndarray, grad_tol: float, max_iter: int):
    """Damped FD-Newton refinement; returns (x, |grad|)."""
    best_x, best_u = x.copy(), U(x)
    for _ in range(max_iter):
        g = _fd_gradient(U, best_x, _POLISH_GRAD_STEP)
        gnorm = float(np.linalg.norm(g))
        if not np.isfinite(gnorm):
            break  # pinned against the domain wall or a conductor
        if gnorm <= grad_tol:
            return best_x, gnorm
        H = _fd_hessian(U, best_x, _POLISH_HESS_STEP)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = -g / max(gnorm, 1e-300) * 1e-7
        if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 50e-6:
            step = -g / max(gnorm, 1e-300) * 1e-7
        while np.linalg.norm(step) > _STEP_TOL and U(best_x + step) > best_u:
            step = step / 2.0
        if np.linalg.norm(step) <= _STEP_TOL:
            break
        best_x = best_x + step
        best_u = U(best_x)
    return best_x, float(np.linalg.norm(_fd_gradient(U, best_x, _POLISH_GRAD_STEP)))


def trap_frequencies(pdef: PotentialDef, minimum,
                     initial_step: float = 1e-6,
                     eig_rtol: float = 5e-3,
                     max_halvings: int = 6):
    """Harmonic frequencies and principal axes from the FD Hessian of U.

    The step starts at ``initial_step`` and is halved until all eigenvalues
    move by less than ``eig_rtol``.  Returns (frequencies Hz ascending,
    axes as rows matching the frequencies); raises SaddlePointError when
    the Hessian has a significantly negative eigenvalue.
    """
    x0 = np.asarray(minimum, dtype=float)

    def U(x):
        return pdef.energy(x)

    h = initial_step
    evals_prev, evecs_prev = np.linalg.eigh(_fd_hessian(U, x0, h))
    for _ in range(max_halvings):
        h /= 2.0
        evals, evecs = np.linalg.eigh(_fd_hessian(U, x0, h))
        scale = max(np.max(np.abs(evals)), 1e-300)
        if np.max(np.abs(evals - evals_prev)) < eig_rtol * scale:
            evals_prev, evecs_prev = evals, evecs
            break
        evals_prev, evecs_prev = evals, evecs

    evals, evecs = evals_prev, evecs_prev
    scale = max(np.max(np.abs(evals)), 1e-300)
    if evals[0] < -1e-4 * scale:
        raise SaddlePointError(
            f"Hessian not positive semidefinite at the reported minimum "
            f"(eigenvalues {evals.tolist()})"
        )
    freqs = np.sqrt(np.clip(evals, 0.0, None) / pdef.species.mass) / (2.0 * np.pi)
    axes = []
    for i in range(3):
        v = evecs[:, i]
        k = int(np.argmax(np.abs(v)))
        axes.append(tuple(v if v[k] >= 0 else -v))
    return tuple(float(f) for f in freqs), tuple(axes)


_DEPTH_DIRECTIONS = np.array([
    d for d in itertools.product((-1.0, 0.0, 1.0), repeat=3) if any(d)
])
_DEPTH_DIRECTIONS = _DEPTH_DIRECTIONS / np.linalg.norm(_DEPTH_DIRECTIONS, axis=1)[:, None]


def trap_depth(pdef: PotentialDef, minimum, axes=None,
               search_halfwidth: float = 1e-3, n_samples: int = 400):
    """Lowest escape barrier along radial/axial rays inside a search box.

    Rays follow the 26-direction stencil, rotated into the principal frame
    when ``axes`` is given; points inside a conductor count as an infinite
    barrier.  Returns (depth J, is_lower_bound); the flag is set when the
    limiting ray is still climbing at the box edge.
    """
    x0 = np.asarray(minimum, dtype=float)
    u0 = pdef.energy(x0)
    energy_batch = pdef.energy_batch
    if energy_batch is None:
        def energy_batch(points):
            return [pdef.energy(p) for p in points]
    dirs = _DEPTH_DIRECTIONS
    if axes is not None:
        dirs = dirs @ np.asarray(axes)
    ts = np.linspace(search_halfwidth / n_samples, search_halfwidth, n_samples)

    depth = np.inf
    lower_bound = False
    for d in dirs:
        pts = x0[None, :] + ts[:, None] * d[None, :]
        u_ray = np.asarray(energy_batch(pts), dtype=float)
        barrier = float(np.max(u_ray) - u0)
        if barrier < depth:
            depth = barrier
            k_max = int(np.argmax(u_ray))
            lower_bound = bool(
                k_max == n_samples - 1 and u_ray[-1] > u_ray[-2]
                and np.isfinite(u_ray[-1])
            )
    return depth, lower_bound


def characterize_trap(pdef: PotentialDef, seed_point, **minimum_kwargs) -> TrapCharacterization:
    """Full characterization: minimum, bottom field, frequencies, depth."""
    base = find_trap_minimum(pdef, seed_point, **minimum_kwargs)
    freqs, axes = trap_frequencies(pdef, base.minimum)
    depth, lb = trap_depth(pdef, base.minimum, axes=axes)
    return TrapCharacterization(
        minimum=base.minimum,
        bottom_field=base.bottom_field,
        height_above_chip=base.height_above_chip,
        grad_norm=base.grad_norm,
        frequencies=freqs,
        axes=axes,
        depth=depth,
        depth_equivalent_gauss=depth / pdef.species.zeeman_slope / 1e-4,
        depth_is_lower_bound=lb,
    )
