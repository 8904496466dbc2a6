"""The four workloads: their inputs, set-up, operations and output checks.

A workload runs in whole rounds.  A round draws its inputs from the run's
random generator, sets up (builds every engine and contour the round needs,
timed as set-up) and then runs its operations one by one.  Rounds never share
engines or contours, so no operation profits from a cache filled by an
earlier round.

Every call into wedgebvp goes through a module attribute (``solver.U_total``,
``contour.sommerfeld_double_loop``), so the wrappers the span tracer installs
in those modules see the benchmark's calls too.

Checks compare outputs with properties the method must have, never with a
stored copy: boundary values on the two rays, finiteness and the doubling
estimate of every sample, independence of the contour (against the Gamma-line
decomposition contour) and the verdict of the certification suite.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from typing import Callable, List, Optional

import numpy as np

from wedgebvp import PolarPoint, ProblemParams, build_engine
from wedgebvp import contour, solver, verify
from wedgebvp.solver import GridSpec

PI = math.pi
TWO_PI = 2.0 * PI
OMEGA = 0.5 + 1.0j
K1, K2 = 1.0, 0.5
VERIFY_CHECK_NAMES = frozenset(
    ("difference_equation", "automorphy", "pole_portrait", "boundary",
     "helmholtz", "asymptotics", "decomposition", "contour_independence")
)


def _no_failure(result) -> Optional[str]:
    return None


@dataclasses.dataclass
class Operation:
    run: Callable[[], object]
    # Returns the list of violated properties of a result that did not fail.
    check: Callable[[object], List[str]]
    # Returns a failure message for a result the program itself flagged as
    # failed (a grid sample marked "error:..."), else None.
    failure: Callable[[object], Optional[str]] = _no_failure


def check_samples(samples, params: ProblemParams) -> List[str]:
    """Finite values, doubling estimate within id_tol, boundary data on the rays.

    U = e^{-i*k1*rho} on theta = 2*pi and U = e^{-i*k2*rho} on
    theta = 2*pi - Phi.
    """
    tol = params.tol.id_tol
    problems = []
    for s in samples:
        rho, theta = s.point.rho, s.point.theta
        where = f"(rho={rho:.6g}, theta={theta:.6g})"
        if not (np.isfinite(s.value.real) and np.isfinite(s.value.imag)):
            problems.append(f"non-finite value {s.value} at {where} counted as {s.method}")
            continue
        if not s.est_quad_error <= tol:
            problems.append(f"est_quad_error {s.est_quad_error:.3e} > id_tol at {where}")
        if theta == params.theta_max:
            want = cmath.exp(-1j * params.k1 * rho)
        elif theta == params.theta_min:
            want = cmath.exp(-1j * params.k2 * rho)
        else:
            continue
        err = abs(s.value - want)
        if not err <= tol:
            problems.append(f"boundary value off by {err:.3e} at {where}")
    return problems


def check_report(report) -> List[str]:
    """A certification report passes with exactly the eight checks present."""
    names = [c.name for c in report.checks]
    problems = []
    if sorted(names) != sorted(VERIFY_CHECK_NAMES):
        problems.append(f"report checks {sorted(names)} are not the eight expected")
    problems += [
        f"check {c.name} failed: measured {c.measured:.3e} > {c.tolerance:.3e} {c.context.get('error', '')}"
        for c in report.checks if not c.passed
    ]
    if not report.overall:
        problems.append("report overall is False")
    return problems


def _grid_failure(samples) -> Optional[str]:
    bad = sorted({s.method for s in samples if s.method.startswith("error")})
    return ", ".join(bad) if bad else None


# ----------------------------------------------------------------------
# grid_cauchy, grid_elementary


class GridWorkload:
    """Radial cuts of the checked total field, as ``wedgebvp field`` computes.

    One operation is one ``grid_eval`` of U at one theta over all rho, on the
    round's engine pair and contour.  The first and last cut of a round lie
    on the boundary rays; the interior thetas are drawn one per stratum.
    """

    rho_min, rho_max = 0.25, 2.5
    min_rounds = 5
    tail_pct = 80.0

    def __init__(self, phi: float, n_rho: int, n_cuts: int):
        self.params = ProblemParams(omega=OMEGA, phi=phi, k1=K1, k2=K2)
        self.n_rho = n_rho
        self.n_cuts = n_cuts

    def draw(self, rng: np.random.Generator):
        p = self.params
        edges = np.linspace(p.theta_min, p.theta_max, self.n_cuts - 1)
        inner = rng.uniform(edges[:-1], edges[1:])
        return [p.theta_min, *map(float, inner), p.theta_max]

    def setup(self, thetas):
        p = self.params
        e1 = build_engine(p, p.k1)
        e2 = build_engine(p, p.k2)
        loop = contour.sommerfeld_double_loop(p, rho_min=self.rho_min)
        loop.refined()
        return e1, e2, loop

    def operations(self, thetas, ctx) -> List[Operation]:
        e1, e2, loop = ctx
        p = self.params

        def cut(theta):
            spec = GridSpec(self.rho_min, self.rho_max, self.n_rho, theta, theta, 1)
            return Operation(
                run=lambda: solver.grid_eval(spec, e1, loop, engine2=e2),
                check=lambda samples: check_samples(samples, p),
                failure=_grid_failure,
            )

        return [cut(th) for th in thetas]


# ----------------------------------------------------------------------
# points_domain

PHI_RANGE = (1.05 * PI, 1.95 * PI)
# Engine construction raises PoleError for CauchyBuilt angles within about
# 6e-4*pi of 3*pi/2; the sweep leaves a band ten times as wide out.
PHI_GAP = (1.49 * PI, 1.51 * PI)
RHO_RANGE = (0.05, 4.0)
PHI_STRATA, IM_OMEGA_STRATA = 12, 4
# The double loop's vertical links at Re w = +-b amplify the integrand by
# e^{rho*g}.  From rho*g of about 9 the doubling estimate stops bounding the
# error, and from about 13 the doubling check raises; the seeded sweep keeps
# rho*g <= 4 and the fixed fault points below cover the failing region.
# g <= 47 over the domain, so rho still reaches 0.085 or more.
MAX_LINK_LOG_GAIN = 4.0
# Points outside that region, the same in every round: each raises
# QuadratureError on the double loop.  (omega, Phi, k1, k2, [(rho, theta)]).
FAULT_SETS = (
    (1.0j, 7.0 * PI / 4.0, 3.0, 3.0, ((1.0, 5.0), (1.0, TWO_PI))),
    (0.5 + 1.0j, 4.0 * PI / 3.0, 2.5, 1.0, ((3.0, 4.0), (3.0, TWO_PI - 4.0 * PI / 3.0))),
)


def link_log_gain(omega: complex, k1: float, k2: float) -> float:
    """max Re(-omega*sinh w) over the double loop's vertical links.

    Computed here from the published construction, so the inputs do not
    change when the program does: b = max(2|Re p1|, 0.25) + 0.25 over both
    wavenumbers, the right link runs at Re w = b between Gamma_{-5pi/2} and
    Gamma_{-pi/2}, and the left link is its image under w -> -w - 3*pi*i,
    on which sinh takes the same values.
    """
    re_p1 = max(abs(cmath.asinh(1j * k / omega).real) for k in (k1, k2))
    b = max(2.0 * re_p1, 0.25) + 0.25
    height = math.atan(omega.real / omega.imag * math.tanh(b))
    w = b + 1j * np.linspace(height - 2.5 * PI, height - 0.5 * PI, 2001)
    return float(np.max((-omega * np.sinh(w)).real))


@dataclasses.dataclass
class PointSet:
    params: ProblemParams
    points: List[PolarPoint]


def _point_set(u, rng: np.random.Generator, n_interior: int) -> PointSet:
    """Parameter set at unit coordinates u = (Phi, Re omega, Im omega, k1, k2)."""
    lo, hi = PHI_RANGE
    gap = PHI_GAP[1] - PHI_GAP[0]
    phi = lo + u[0] * (hi - lo - gap)
    if phi >= PHI_GAP[0]:
        phi += gap
    omega = complex(u[1], 0.5 + u[2])
    k1, k2 = 0.5 + 2.5 * u[3], 0.5 + 2.5 * u[4]
    p = ProblemParams(omega=omega, phi=float(phi), k1=float(k1), k2=float(k2))
    rho_hi = min(RHO_RANGE[1], MAX_LINK_LOG_GAIN / link_log_gain(omega, k1, k2))
    log_rho = rng.uniform(math.log(RHO_RANGE[0]), math.log(rho_hi), n_interior + 2)
    # One interior theta per equal slice of the wedge.
    slices = (np.arange(n_interior) + rng.uniform(size=n_interior)) / n_interior
    thetas = [*(p.theta_min + slices * p.phi), p.theta_max, p.theta_min]
    points = [PolarPoint(float(math.exp(r)), float(t)) for r, t in zip(log_rho, thetas)]
    return PointSet(p, points)


class PointsWorkload:
    """Checked U at scattered points over the stated parameter domain.

    Every operation is a cold theta on an engine pair of its own parameter
    set.  Per set: n_interior interior points and one point on each ray.
    """

    rho_min = RHO_RANGE[0]
    min_rounds = 2
    # The operations near Phi = pi (about 15 % of them) form a second, slow
    # cluster whose spread from seed to seed dominates any higher percentile.
    tail_pct = 80.0

    def __init__(self, n_sets: int, n_interior: int):
        self.n_sets = n_sets
        self.n_interior = n_interior

    def draw(self, rng: np.random.Generator) -> List[PointSet]:
        # The cost of an operation depends steeply on Phi and Im omega (up to
        # seven times the median for Phi near pi and small Im omega).  So
        # that the mix of a round is the same from seed to seed, each cell of
        # a PHI_STRATA x IM_OMEGA_STRATA grid holds the same number of sets,
        # and Re omega, k1 and k2 form a Latin hypercube: each of n_sets
        # equal strata of their ranges holds exactly one set.
        n = self.n_sets
        cells = np.arange(n) % (PHI_STRATA * IM_OMEGA_STRATA)
        u = np.empty((5, n))
        u[0] = (cells // IM_OMEGA_STRATA + rng.uniform(size=n)) / PHI_STRATA
        u[2] = (cells % IM_OMEGA_STRATA + rng.uniform(size=n)) / IM_OMEGA_STRATA
        for row in (1, 3, 4):
            u[row] = (rng.permutation(n) + rng.uniform(size=n)) / n
        sets = [_point_set(u[:, i], rng, self.n_interior) for i in range(n)]
        for omega, phi, k1, k2, pts in FAULT_SETS:
            p = ProblemParams(omega=omega, phi=phi, k1=k1, k2=k2)
            sets.append(PointSet(p, [PolarPoint(r, t) for r, t in pts]))
        return sets

    def setup(self, sets):
        built = []
        for s in sets:
            p = s.params
            e1 = build_engine(p, p.k1)
            e2 = build_engine(p, p.k2)
            loop = contour.sommerfeld_double_loop(p, rho_min=self.rho_min)
            loop.refined()
            built.append((e1, e2, loop))
        return built

    def operations(self, sets, ctx) -> List[Operation]:
        ops = []
        for s, (e1, e2, loop) in zip(sets, ctx):
            reference = _DecompositionReference(s.params, e1, e2, self.rho_min)
            for pt in s.points:
                ops.append(Operation(
                    run=lambda pt=pt, e1=e1, e2=e2, loop=loop: solver.U_total(pt, e1, e2, loop),
                    check=lambda sample, p=s.params, ref=reference: (
                        check_samples([sample], p) or ref.check(sample)
                    ),
                ))
        return ops


class _DecompositionReference:
    """U from the Gamma-line decomposition contour, with its own doubling.

    u1 uses the contour refined at the k1 pole abscissa and u2 one refined
    at the k2 pole abscissa.  The reference value is the one on the refined
    contour.  On that contour u1_decomposed converges only about linearly in
    the node count (each doubling shrinks its error by a factor 0.45 to 0.55
    where it is slowest), so its error is bounded by twice its change under
    refinement; where it has converged the bound is id_tol alone.
    """

    def __init__(self, params, e1, e2, rho_min):
        self.params = params
        self.e1, self.e2 = e1, e2
        self.rho_min = rho_min
        self._contours = None

    def _contour_pair(self):
        if self._contours is None:
            p = self.params
            d1 = contour.decomposition_contour(p, rho_min=self.rho_min)
            d2 = contour.decomposition_contour(dataclasses.replace(p, k1=p.k2), rho_min=self.rho_min)
            self._contours = (d1, d2)
        return self._contours

    def _value(self, pt, d1, d2):
        p = self.params
        theta1 = -pt.theta + 4.0 * PI - p.phi
        total = 0.0j
        for engine, dec, theta in ((self.e1, d1, pt.theta), (self.e2, d2, theta1)):
            ray = abs(theta - 1.5 * PI) < 1e-12
            total += solver.u1_decomposed(PolarPoint(pt.rho, theta), engine, dec, pv=ray).value
        return total

    def deviation(self, sample):
        """(|U - reference|, allowed deviation) at an interior point."""
        d1, d2 = self._contour_pair()
        coarse = self._value(sample.point, d1, d2)
        fine = self._value(sample.point, d1.refined(), d2.refined())
        return abs(sample.value - fine), self.params.tol.id_tol + 2.0 * abs(coarse - fine)

    def check(self, sample) -> List[str]:
        p, pt = self.params, sample.point
        if pt.theta in (p.theta_min, p.theta_max):
            return []
        err, tol = self.deviation(sample)
        if err <= tol:
            return []
        return [
            f"U={sample.value} differs from the decomposition contour by {err:.3e} > {tol:.3e} "
            f"at (rho={pt.rho:.6g}, theta={pt.theta:.6g}), omega={p.omega}, "
            f"Phi/pi={p.phi / PI:.6g}, k1={p.k1:.6g}, k2={p.k2:.6g}"
        ]


# ----------------------------------------------------------------------
# verify_suite

VERIFY_CONFIGS = tuple(
    ProblemParams(omega=omega, phi=phi, k1=1.0, k2=1.0)
    for phi in (4.0 * PI / 3.0, 1.5 * PI, 7.0 * PI / 4.0)
    for omega in (1.0j, 0.5 + 1.0j)
)


class VerifyWorkload:
    """``run_full_suite`` on the six acceptance configurations, one per op.

    The suites build their own engines and contours; set-up times the same
    constructor calls (both engines, the double loop and the decomposition
    contour at rho_min = 0.2) for the six configurations.
    """

    min_rounds = 5
    # Thirty suites per run leave twelve beyond the 60th percentile.
    tail_pct = 60.0

    def __init__(self, configs=VERIFY_CONFIGS):
        self.configs = configs

    def draw(self, rng: np.random.Generator):
        return [int(s) for s in rng.integers(0, 2**31 - 1, len(self.configs))]

    def setup(self, seeds):
        for p in self.configs:
            build_engine(p, p.k1)
            build_engine(p, p.k2)
            contour.sommerfeld_double_loop(p, rho_min=0.2)
            contour.decomposition_contour(p, rho_min=0.2)

    def operations(self, seeds, ctx) -> List[Operation]:
        return [
            Operation(
                run=lambda p=p, s=s: verify.run_full_suite(p, seed=s),
                check=check_report,
            )
            for p, s in zip(self.configs, seeds)
        ]


def make(name: str):
    if name == "grid_cauchy":
        return GridWorkload(7.0 * PI / 4.0, n_rho=8, n_cuts=48)
    if name == "grid_elementary":
        return GridWorkload(1.5 * PI, n_rho=144, n_cuts=64)
    if name == "points_domain":
        return PointsWorkload(n_sets=48, n_interior=1)
    if name == "verify_suite":
        return VerifyWorkload()
    raise KeyError(name)


NAMES = ("grid_cauchy", "grid_elementary", "points_domain", "verify_suite")
