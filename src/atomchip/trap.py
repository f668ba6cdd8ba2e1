"""Locate and characterize magnetic trap minima.

The trapping potential is U(r) = zeeman_slope * |B(r)| plus an optional
gravity term -m g.r.  Its gradient slope * J^T b_hat (J = dB/dx, b_hat =
B/|B|) is exact from the closed-form field Jacobian; its Hessian is

    slope * [J^T (I - b_hat b_hat^T) J / |B| + sum_i b_hat_i dJ_i/dx],

whose first term carries the trap's own length scale |B| / ||J|| and is
exact, and whose second term is a central difference of the analytic J.
Minima come from one trust-region Newton solve from the seed; frequencies
and principal axes from one Hessian.  A potential is U, one point at a time
and in batches, and ``local``: U's gradient and Hessian and B at a point,
which a magnetic potential takes from one Jacobian batch of 7 points, the
point and its neighbours one difference step away along each axis.  Where
a conductor lies within that step the gradient and B come from the point
alone, and there or at a field zero ``local`` carries the error that says
why U has no Hessian.  ``characterize_trap`` takes the bottom field and the
frequencies from the search's last Newton step, which is at the minimum,
and the depth's U there from the search.

Numerical defaults (documented): Jacobian difference step 1 um (B is smooth
on the wire scale, so its error is ~ (step / wire distance)^2); the solve
stops when a step falls below 1e-13 m and accepts the point if |grad U| <=
1e-26 J/m (about 1e-5 G/um in field units for the Rb87 |2,2> slope).  Where
|B| <= ||J|| * 1e-13 m (a field zero, where U is a cone) b_hat is taken as
0, the zero subgradient: such a minimum has no harmonic frequencies.  With
gravity the gradient there is 0 when a subgradient slope J^T v (|v| <= 1)
balances m g, so a cone steep enough to hold the atom is found as the
minimum, and -m g otherwise.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ChipError, ConfigError, ConvergenceError, FieldDomainError, FieldZeroError,
    SaddlePointError,
)
from .fields import DOMAIN_PAD, BiotSavartModel, _point_um
from .geometry import AtomSpecies, CurrentConfig, Vec3, _dot3

GRAD_TOL = 1e-26       # J/m
_STEP_TOL = 1e-13      # m
_JACOBIAN_STEP = 1e-6  # m, central difference of J in the Hessian
_SHIFTS = np.vstack([np.eye(3), -np.eye(3)]) * _JACOBIAN_STEP  # the stencil's offsets
_INITIAL_RADIUS = 10e-6  # m, first trust radius of the minimum search
_DOMAIN_HALFWIDTH = 500e-6  # m, half-width of the seed-centred search box
_MAX_ITERATIONS = 200
_RANGE_RTOL = 1e-9  # relative residual of m g = J^T v that counts as in range


class Local(NamedTuple):
    """U's derivatives and the field backing it at one point."""

    gradient: np.ndarray          # (3,), J/m
    hessian: np.ndarray | ChipError  # (3, 3) J/m^2, or why U has none there
    field: np.ndarray | None      # (3,) T; None for synthetic potentials


@dataclass(frozen=True)
class PotentialDef:
    """Scalar potential U(r) with the species it applies to.

    ``energy`` maps a 3-vector (m) to joules and ``energy_batch`` an (N, 3)
    array to the N energies, each with the bits of ``energy``; ``local``
    maps a 3-vector to its ``Local``, which the minimum search and the
    frequencies need.  Instances are immutable and safe to share across
    workers.
    """

    energy: Callable[[np.ndarray], float]
    species: AtomSpecies
    energy_batch: Callable[[np.ndarray], np.ndarray]
    local: Callable[[np.ndarray], Local]


def magnetic_potential(model: BiotSavartModel, currents: CurrentConfig,
                       species: AtomSpecies, gravity: bool = False) -> PotentialDef:
    """Zeeman potential of the layout's field, optionally with gravity.

    U reads inf inside a conductor, and ``local`` raises FieldDomainError
    there, as the model does.
    """
    g = np.asarray(species.gravity)

    def energy_batch(points: np.ndarray) -> np.ndarray:
        """U at each point, inf inside a conductor; the field is evaluated
        outside conductors only."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        outside = model.frames.first_containing(points, DOMAIN_PAD) < 0
        u = np.full(len(points), np.inf)
        B = model.field(currents, points[outside])
        u[outside] = species.zeeman_slope * np.sqrt(_dot3(B, B))  # rounds as np.linalg.norm
        if gravity:
            u = u - species.mass * (points @ g)
        return u

    def energy(r: np.ndarray) -> float:
        return float(energy_batch(r)[0])

    def direction(B: np.ndarray, J: np.ndarray) -> tuple[np.ndarray, float]:
        """(b_hat, |B|), with b_hat = 0 on a field zero (module docstring)."""
        magnitude = float(np.linalg.norm(B))
        if magnitude <= np.linalg.norm(J) * _STEP_TOL:
            return np.zeros(3), magnitude
        return B / magnitude, magnitude

    def gradient_at(B: np.ndarray, J: np.ndarray) -> np.ndarray:
        """grad U from B and J at one point."""
        b_hat = direction(B, J)[0]
        grad = species.zeeman_slope * (J.T @ b_hat)
        if not gravity:
            return grad
        weight = species.mass * g
        if not b_hat.any():
            # 0 is a subgradient when slope J^T v = m g for some |v| <= 1:
            # m g must lie in the range of J^T, and its least-norm preimage
            # pinv(J^T) m g must be no longer than slope
            v = np.linalg.pinv(J.T) @ weight
            residual = np.linalg.norm(J.T @ v - weight)
            if (np.linalg.norm(v) <= species.zeeman_slope
                    and residual <= _RANGE_RTOL * np.linalg.norm(weight)):
                return np.zeros(3)
        return grad - weight

    def hessian_at(B: np.ndarray, J: np.ndarray) -> np.ndarray | ChipError:
        """The Hessian of U from B and J on the stencil (``_stencil``), or
        FieldZeroError at a field zero."""
        b_hat, magnitude = direction(B[0], J[0])
        if not b_hat.any():
            return FieldZeroError(
                "no harmonic curvature: U = slope |B| is a cone at this field zero")
        transverse = J[0] - np.outer(b_hat, b_hat @ J[0])  # (I - b b^T) J
        dJ = (J[1:4] - J[4:]) / (2.0 * _JACOBIAN_STEP)  # dJ[k] = dJ/dx_k
        second = np.einsum("i,kij->jk", b_hat, dJ)
        curvature = J[0].T @ transverse / magnitude + 0.5 * (second + second.T)
        return species.zeeman_slope * curvature

    def local(r: np.ndarray) -> Local:
        """All from one Jacobian batch; per-point field arithmetic does not
        depend on the batch, so row 0 has the bits of a 1-point call."""
        try:
            B, J = model.field_and_jacobian(currents, _stencil(r))
        except FieldDomainError as error:  # a conductor within the stencil
            B, J = model.field_and_jacobian(currents, r)
            return Local(gradient_at(B[0], J[0]), error, B[0])
        return Local(gradient_at(B[0], J[0]), hessian_at(B, J), B[0])

    return PotentialDef(energy=energy, species=species, energy_batch=energy_batch,
                        local=local)


def _stencil(r) -> np.ndarray:
    """(7, 3): ``r``, then r + step e_k and r - step e_k for k = x, y, z,
    the points whose Jacobians give a Hessian (step 1 um)."""
    r = np.asarray(r, dtype=float)
    return np.vstack([r, r + _SHIFTS])


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


def find_trap_minimum(pdef: PotentialDef, seed_point) -> TrapCharacterization:
    """Local minimizer of U near ``seed_point`` by one trust-region Newton
    solve.

    Each step is the Newton step where U's Hessian is positive definite and
    the steepest descent direction otherwise, clipped to a radius that
    doubles when the step lowers U and shrinks when it does not; points in
    a conductor or outside the 1 mm box centred on the seed count as infinite U.
    The solve stops when a step falls below 1e-13 m: a gradient stop would
    accept any point of a soft axis (the builtin trap's axial curvature,
    5e-24 J/m^2, meets 1e-26 J/m within +-2 mm).  Raises ConvergenceError,
    naming the search's last point, if |grad U| then exceeds ``GRAD_TOL``
    or the point sits on the box wall, and ConfigError for a seed that is
    not finite.
    """
    return _search(pdef, seed_point)[0]


def _search(pdef: PotentialDef, seed_point):
    """``find_trap_minimum``'s solve: (its result, U at the minimum, U's
    Hessian there from the last Newton step, or the error where U has
    none)."""
    seed = np.asarray(seed_point, dtype=float)
    if not np.all(np.isfinite(seed)):
        raise ConfigError(f"seed point must be finite, got {tuple(seed.tolist())} m")
    lo, hi = seed - _DOMAIN_HALFWIDTH, seed + _DOMAIN_HALFWIDTH

    def U(x: np.ndarray) -> float:
        if np.any(x < lo) or np.any(x > hi):
            return np.inf
        try:
            return pdef.energy(x)
        except ChipError:
            # e.g. an outer miter-corner filament node: it lies outside every
            # segment box, and the field there is not finite
            return np.inf

    x, u = seed, U(seed)
    radius = _INITIAL_RADIUS
    local, newton = _newton_step(pdef, x)
    for _ in range(_MAX_ITERATIONS):
        gnorm = float(np.linalg.norm(local.gradient))
        if newton is not None:
            step = newton * min(1.0, radius / float(np.linalg.norm(newton)))
        elif gnorm > 0.0:
            step = -radius / gnorm * local.gradient
        else:
            break  # the apex of a cone at a field zero
        length = float(np.linalg.norm(step))
        if length < _STEP_TOL:
            break
        u_step = U(x + step)
        if u_step < u:
            x, u = x + step, u_step
            radius *= 2.0
            local, newton = _newton_step(pdef, x)
        else:
            radius = length / 4.0
    else:
        raise ConvergenceError(
            f"no trap minimum found within the iteration budget; last {_point_um(x)}")
    if not gnorm <= GRAD_TOL:
        raise ConvergenceError(f"search stalled at {_point_um(x)}: "
                               f"|grad U| = {gnorm:.3g} J/m > {GRAD_TOL:.3g} J/m")
    if np.any(np.abs(x - seed) >= _DOMAIN_HALFWIDTH * (1.0 - 1e-9)):
        raise ConvergenceError(f"trap minimum escaped the search domain at {_point_um(x)}")

    return TrapCharacterization(
        minimum=tuple(float(c) for c in x),
        bottom_field=float("nan") if local.field is None else float(np.linalg.norm(local.field)),
        height_above_chip=float(x[1]),
        grad_norm=gnorm,
    ), u, local.hessian


def _newton_step(pdef: PotentialDef, x: np.ndarray):
    """(``pdef.local(x)``, Newton step), the step None where U has no
    Hessian (a field zero, a conductor within the Jacobian difference step)
    or where it is not positive definite."""
    local = pdef.local(x)
    if isinstance(local.hessian, ChipError):
        return local, None
    try:
        np.linalg.cholesky(local.hessian)
    except np.linalg.LinAlgError:
        return local, None
    return local, np.linalg.solve(local.hessian, -local.gradient)


def trap_frequencies(pdef: PotentialDef, minimum):
    """Harmonic frequencies and principal axes from the Hessian of U.

    Returns (frequencies Hz ascending, axes as rows matching the
    frequencies); raises SaddlePointError when the Hessian has a
    significantly negative eigenvalue, and where U has none the error
    ``Local.hessian`` carries: FieldZeroError at a field zero,
    FieldDomainError where a conductor lies within the difference step.
    """
    return _frequencies(pdef.local(np.asarray(minimum, dtype=float)).hessian,
                        pdef.species.mass)


def _frequencies(hessian: np.ndarray | ChipError, mass: float):
    """``trap_frequencies`` from U's Hessian at the minimum, or the error
    ``Local.hessian`` carries in its place."""
    if isinstance(hessian, ChipError):
        raise hessian
    evals, evecs = np.linalg.eigh(hessian)
    scale = max(np.max(np.abs(evals)), 1e-300)
    if evals[0] < -1e-4 * scale:
        raise SaddlePointError(
            f"Hessian not positive semidefinite at the reported minimum "
            f"(eigenvalues {evals.tolist()})"
        )
    freqs = np.sqrt(np.clip(evals, 0.0, None) / mass) / (2.0 * np.pi)
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
_COARSE_STRIDE = 16  # samples between the points of a ray's second round
_DEPTH_HALFWIDTH = 1e-3  # m, half-width of the depth search box
_DEPTH_SAMPLES = 400  # samples per ray


def trap_depth(pdef: PotentialDef, minimum, axes=None,
               search_halfwidth: float = _DEPTH_HALFWIDTH, n_samples: int = _DEPTH_SAMPLES):
    """Lowest escape barrier along radial/axial rays inside a search box.

    Rays follow the 26-direction stencil, rotated into the principal frame
    when ``axes`` is given; points inside a conductor count as an infinite
    barrier.  Returns (depth J, is_lower_bound); the flag is set when the
    limiting ray is still climbing at the box edge.

    The depth is the minimum over rays of (max of U along the ray) - U at
    the minimum, the first ray in stencil order winning a tie.  Each ray's
    samples come in three rounds, counted back from its last sample: the
    last (one batch for all 26 rays), every 16th, then all.  The maximum so
    far bounds a ray's barrier from below.  The open ray with the lowest
    (bound, stencil index) gets its next round until that pair exceeds the
    best complete (barrier, index); a ray is complete after its last round.
    The limiting ray is always completed, and U at a point does not depend
    on the batch it is evaluated in, so the result equals that of
    evaluating all 26 x ``n_samples`` points, bit for bit.
    """
    if n_samples < 2:
        raise ConfigError(f"n_samples must be >= 2, got {n_samples}")
    if not 0.0 < search_halfwidth < np.inf:
        raise ConfigError(f"search_halfwidth must be finite and > 0, got {search_halfwidth}")
    x0 = np.asarray(minimum, dtype=float)
    return _depth(pdef, x0, pdef.energy(x0), axes, search_halfwidth, n_samples)


def _depth(pdef: PotentialDef, x0: np.ndarray, u0: float, axes,
           search_halfwidth: float, n_samples: int):
    """``trap_depth`` about ``x0``, where U is ``u0``."""
    dirs = _DEPTH_DIRECTIONS
    if axes is not None:
        dirs = dirs @ np.asarray(axes)
    ts = np.linspace(search_halfwidth / n_samples, search_halfwidth, n_samples)

    last = n_samples - 1
    strided = np.zeros(n_samples, dtype=bool)
    strided[last::-_COARSE_STRIDE] = True
    rounds = [r for r in (np.flatnonzero(strided)[:-1], np.flatnonzero(~strided)) if len(r)]
    u = np.full((len(dirs), n_samples), -np.inf)  # -inf where not evaluated yet
    u[:, last] = pdef.energy_batch(x0 + ts[last] * dirs)
    open_rays = [(u[ray, last] - u0, ray, 0) for ray in range(len(dirs))]  # bound, ray, round
    heapq.heapify(open_rays)
    best, best_ray = np.inf, len(dirs)
    while open_rays and open_rays[0][:2] <= (best, best_ray):
        _, ray, k = heapq.heappop(open_rays)
        u[ray, rounds[k]] = pdef.energy_batch(x0 + ts[rounds[k], None] * dirs[ray])
        bound = u[ray].max() - u0  # no higher than the ray's barrier
        if k + 1 < len(rounds):
            heapq.heappush(open_rays, (bound, ray, k + 1))
        elif (bound, ray) < (best, best_ray):
            best, best_ray = bound, ray
    u_ray = u[best_ray]
    lower_bound = bool(
        np.argmax(u_ray) == n_samples - 1 and u_ray[-1] > u_ray[-2]
        and np.isfinite(u_ray[-1])
    )
    return float(best), lower_bound


def characterize_trap(pdef: PotentialDef, seed_point) -> TrapCharacterization:
    """Full characterization: minimum, bottom field, frequencies, depth.

    The frequencies come from the Hessian of the search's last Newton step
    (or raise its error where U has none) and the depth from the search's U
    at the minimum: the values ``trap_frequencies`` and ``trap_depth`` would
    compute again, bit for bit.
    """
    base, u0, hessian = _search(pdef, seed_point)
    x0 = np.asarray(base.minimum, dtype=float)
    freqs, axes = _frequencies(hessian, pdef.species.mass)
    depth, lb = _depth(pdef, x0, u0, axes, _DEPTH_HALFWIDTH, _DEPTH_SAMPLES)
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
