"""Construction of the Sommerfeld integrand kernel.

The field integral is  u1 = (1/(4*pi*sin Phi)) Int e^{-omega*rho*sinh w}
v1(w + i*theta) dw,  and this module builds the function v1 = v11 - G, where

    G(w)  = i*omega*sinh(w - i*Phi) / (i*omega*sinh(w) + k)

and v11 is a solution of the difference equation

    v11(w) - v11(w + 2i*Phi) = G2(w),     G2(w) = G(w) - G(h2(w)),

automorphic under h1: w -> -w + pi*i, with prescribed poles/residues at the
branch point p1 and its reflections (residues r2 at p1, r1 at -p1-pi*i).
Here h2: w -> -w + pi*i - 2i*Phi.

Two construction branches:

* Elementary (Phi = 3*pi/2 exactly).  Because 2i*Phi = 3*pi*i is
  commensurable with the pi*i lattice of sinh, an explicit solution exists:
  v11 = m + Q with  m(w) = (pi + 2i*w)/(6*pi) * G2(w)  and Q a finite sum of
  coth((w - a)/3) terms that repairs the residues while keeping 3*pi*i
  periodicity and h1 automorphy.

* CauchyBuilt (any other Phi).  The half strip between Gamma_{pi/2-Phi} and
  Gamma_{pi/2+Phi} is mapped by t(w) = coth((pi/(2*Phi))(w - pi*i/2))^2 onto
  the plane cut along the arc beta_check = t(beta_hat); the difference
  equation becomes a jump (saltus) problem across the arc, solved by the
  Cauchy-type integral

      a1_check(t) = (1/(2*pi*i)) Int_beta  G2_check(t') / (t' - t) dt'.

  Then a1(w) = a1_check(t(w)) + C2 inside the strip, extended up and down by
  the difference equation itself, and v11 = a1 + T2 (Phi < 3*pi/2) or
  a1 + T1 + T2 (Phi > 3*pi/2) with periodic supplements T_j built from
  coth(pi*(w - a)/(2*Phi)).  The constant C2 = ln(4)*sin(Phi)/pi - C, with C
  read off the logarithmic asymptotics of a1_check near t = 1, normalizes
  v11 to have zero constant term in its linear growth at Re w -> +-infinity:

      v11(w) = sign(Re w)*(sin Phi/Phi)*(w - pi*i/2) + O(e^{-pi*|Re w|/Phi}).

  The remainder exponent is forced by the difference equation; the
  derivation is in docs/decay_exponent.md.

Numerical notes
---------------
The Cauchy integral is evaluated through precomputed tables of G2, t and t'
along the arc (composite Gauss-Legendre in the w parameter, laid out by the
same panel builder as the field contours of the contour module).  Evaluation
points approaching the arc are the delicate case; three devices keep the
evaluation uniformly accurate:

* subtraction of the density value at the nearest node plus an exact
  integral of the constant along the arc polyline 0 -> t_1 ... t_M -> 1
  (this also makes the tail beyond the last node exact to O(e^{-W_table})).
  The real parts of its segment logarithms telescope to log(|1-t|/|t|), so
  only the imaginary part is summed, as atan2(cross, dot) of consecutive
  vertices seen from t;
* two auxiliary tables with the arc shifted by +-eta in the strip
  coordinate; a point near the lower/upper strip boundary is evaluated
  against the table whose deformed arc lies on the far side, which is
  legitimate by analyticity of the density between the arcs (the deformed
  path keeps the exact endpoints t = 0 and t = 1 via a short connector);
* panel refinement of the tables near the projections of G2 poles that
  approach the carrier (which happens as Phi -> 3*pi/2).

The sum runs in blocks of about _CAUCHY_BLOCK (point, node) pairs, so its
real work arrays stay in cache.  Per block, dx + i*dy = t_j - t and
r2 = dx^2 + dy^2 are formed once; r2 decides the near rows, and with dx, dy
scaled by 1/r2 the plain sum of dens_j/(t_j - t) over every row is two real
matrix products with (Re dens, Im dens).  Only the near rows are then redone
with the subtraction above.  The real and imaginary parts of t and of the
density, the weights t'*jac and the squared near radii are computed once,
when a table is built.

In the Elementary branch each coth((w - a)/3) term of Q (period 3*pi*i) and
the pi*i-periodic G2 inside m are evaluated at the translate of w - a (of w
for G2) by a whole number of periods that lies nearest the real axis.  The
periods are subtracted with pi split into two doubles and an error-free
difference; rounding w - a directly at |Im w| ~ 16 costs a point near a
pole up to 5e-13 of the difference-equation residual.
"""

from __future__ import annotations

from contextlib import contextmanager
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    PI,
    BranchPoint,
    ProblemParams,
    branch_point,
    curve_offset,
    validate_params,
)
from .contour import _gamma_piece, _insert_refinement, _vertical_piece
from .errors import ConvergenceError, DomainError, NearArcError, PoleError

PHI_SWITCH_EPS = 1e-9


def _as_c_array(w) -> Tuple[np.ndarray, bool]:
    arr = np.asarray(w, dtype=complex)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def _ret(values: np.ndarray, scalar: bool):
    return complex(values[0]) if scalar else values


def _lattice_distance(w: np.ndarray, anchors: Sequence[complex], period: complex):
    """Min distance from each w to the union of anchor + n*period lattices."""
    d = np.full(w.shape, np.inf)
    nearest = np.zeros(w.shape, dtype=complex)
    for a in anchors:
        z = w - a
        n = np.round((z / period).real)
        cand = np.abs(z - n * period)
        closer = cand < d
        d = np.where(closer, cand, d)
        nearest = np.where(closer, a + n * period, nearest)
    return d, nearest


def _guard(w: np.ndarray, anchors, period, clearance: float, what: str) -> None:
    d, nearest = _lattice_distance(w, anchors, period)
    j = int(np.argmin(d))
    if d[j] < clearance:
        raise PoleError(
            f"{what} evaluated {d[j]:.3e} from pole {nearest[j]:.6g}",
            nearest=complex(nearest[j]),
            distance=float(d[j]),
        )


# pi = _PI_HI + _PI_LO to about 1e-24; _PI_HI keeps 26 significant bits, so
# n * _PI_HI is exact for every integer |n| < 2**27.
_PI_HI = math.ldexp(math.floor(math.ldexp(math.pi, 24)), -24)
_PI_LO = (math.pi - _PI_HI) + 1.2246467991473532e-16  # + (pi - math.pi)


def _minus_nearest_image(w: np.ndarray, base: complex, c: int,
                         period: int) -> np.ndarray:
    """w - (base + m*pi*i) for the m in c + period*Z that makes |Im| least.

    Im w - m*pi is the one difference that can lose a small result; it is
    formed error-free (Knuth's TwoSum) with pi split into two doubles, so a
    point near a pole of a (period*pi*i)-periodic function keeps its
    distance to the pole even where |Im w| is large.
    """
    y = w.imag
    m = c + period * np.round((y - base.imag - c * PI) / (period * PI))
    b = m * _PI_HI
    s = y - b
    bb = s - y
    err = (y - (s - bb)) - (b + bb)
    return (w.real - base.real) + 1j * ((s - base.imag) + (err - m * _PI_LO))


def _coth(z: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / np.tanh(z)


# Pairs of (evaluation point, table node) per block of the Cauchy sum: a few
# real (block,) work arrays of this many doubles stay cache resident.
_CAUCHY_BLOCK = 1 << 15


@dataclass
class _CauchyTable:
    """Quadrature of the Cauchy integral along one (possibly shifted) arc.

    Node j carries t_j = t(w_j) and the weight tpj_j = t'(w_j) * jac_j, where
    jac is tangent * panel scale * Gauss weight, so the density on the arc
    is dens_j = G2(w_j) * tpj_j.  Everything _cauchy_eval needs is split
    into real arrays once here.
    """

    shift: float
    g2: np.ndarray
    tpj: np.ndarray
    t_re: np.ndarray
    t_im: np.ndarray
    dens_ri: np.ndarray   # (M, 2): Re and Im of g2 * tpj
    near_r2: np.ndarray   # (10 * local node spacing)^2

    @classmethod
    def from_nodes(cls, shift: float, g2: np.ndarray, t: np.ndarray,
                   tpj: np.ndarray) -> "_CauchyTable":
        dens = g2 * tpj
        # Local node spacing decides whether the plain quadrature sum
        # resolves the Cauchy pole at t or the subtraction device is needed.
        gaps = np.abs(np.diff(t))
        sp = np.empty(t.size)
        sp[0] = gaps[0]
        sp[-1] = gaps[-1]
        sp[1:-1] = 0.5 * (gaps[:-1] + gaps[1:])
        return cls(shift=shift, g2=g2, tpj=tpj,
                   t_re=np.ascontiguousarray(t.real),
                   t_im=np.ascontiguousarray(t.imag),
                   dens_ri=np.column_stack([dens.real, dens.imag]),
                   near_r2=(10.0 * sp) ** 2)

    @property
    def t(self) -> np.ndarray:
        return self.t_re + 1j * self.t_im

    @property
    def t_poly(self) -> np.ndarray:
        """The arc polyline [0, t(path nodes)..., 1]."""
        return np.concatenate([[0.0 + 0.0j], self.t, [1.0 + 0.0j]])


class KernelEngine:
    """Immutable evaluator of G, G2, v11 and v1 for one (params, k) pair.

    Build with :func:`build_engine`.
    """

    def __init__(
        self,
        params: ProblemParams,
        k: float,
        n_beta: Optional[int] = None,
    ):
        validate_params(params)
        self.params = params
        self.k = float(k)
        self.phi = float(params.phi)
        self.omega = complex(params.omega)
        self.tol = params.tol
        self.pole_clearance = params.tol.pole_clearance
        self.branch: BranchPoint = branch_point(params, k)
        self.q1 = -self.branch.p1 - 1j * PI + 2j * self.phi
        self.kind = (
            "Elementary"
            if abs(self.phi - 1.5 * PI) < PHI_SWITCH_EPS
            else "CauchyBuilt"
        )
        self.const_C: Optional[complex] = None
        self.const_C2: Optional[complex] = None
        self._tables: dict = {}
        if self.kind == "CauchyBuilt":
            self._build_cauchy(n_beta)

    @contextmanager
    def relaxed_guard(self, clearance: float = 1e-12):
        """Temporarily lower the pole guard for deliberate near-pole work.

        Pole-subtracted quadrature evaluates the kernel very close to the
        moving pole on purpose; the subtraction cancels the singular part, so
        the guard that protects ordinary callers must step aside.
        """
        old = self.pole_clearance
        self.pole_clearance = float(clearance)
        try:
            yield self
        finally:
            self.pole_clearance = old

    # ------------------------------------------------------------------
    # geometry helpers

    def _offset(self, w: np.ndarray) -> np.ndarray:
        ratio = self.omega.real / self.omega.imag
        return w.imag - np.arctan(ratio * np.tanh(w.real))

    def _sigma(self, w: np.ndarray) -> np.ndarray:
        """Strip coordinate: 0 on the carrier Gamma_{pi/2-Phi}, 2*Phi at top."""
        return self._offset(w) - (PI / 2.0 - self.phi)

    # ------------------------------------------------------------------
    # elementary building blocks

    def g_hat(self, w):
        arr, scalar = _as_c_array(w)
        p1 = self.branch.p1
        _guard(arr, (p1, -p1 + 1j * PI), 2j * PI,
               self.pole_clearance, "G")
        val = (1j * self.omega * np.sinh(arr - 1j * self.phi)
               / (1j * self.omega * np.sinh(arr) + self.k))
        return _ret(val, scalar)

    def _g2_anchors(self):
        p1 = self.branch.p1
        sh = -2j * self.phi
        return (p1, -p1 + 1j * PI, p1 + sh, -p1 + 1j * PI + sh)

    def g2_hat(self, w):
        arr, scalar = _as_c_array(w)
        _guard(arr, self._g2_anchors(), 2j * PI,
               self.pole_clearance, "G2")
        h2 = -arr + 1j * PI - 2j * self.phi
        num = lambda z: 1j * self.omega * np.sinh(z - 1j * self.phi)
        den = lambda z: 1j * self.omega * np.sinh(z) + self.k
        val = num(arr) / den(arr) - num(h2) / den(h2)
        return _ret(val, scalar)

    def t_map(self, w):
        arr, scalar = _as_c_array(w)
        _guard(arr, (1j * PI / 2.0,), 2j * self.phi,
               self.pole_clearance, "t")
        m = (PI / (2.0 * self.phi)) * (arr - 1j * PI / 2.0)
        val = _coth(m) ** 2
        return _ret(val, scalar)

    def dt_map(self, w):
        arr, scalar = _as_c_array(w)
        _guard(arr, (1j * PI / 2.0,), 2j * self.phi,
               self.pole_clearance, "dt")
        m = (PI / (2.0 * self.phi)) * (arr - 1j * PI / 2.0)
        val = -(PI / self.phi) * np.cosh(m) / np.sinh(m) ** 3
        return _ret(val, scalar)

    def _t_unguarded(self, w: np.ndarray) -> np.ndarray:
        """t(w) with the pole at pi*i/2 mapped to a huge finite value.

        Used by the strip evaluator: a1_check(t) -> 0 as t -> infinity, so a
        point near the map pole is harmless there.
        """
        m = (PI / (2.0 * self.phi)) * (w - 1j * PI / 2.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = _coth(m) ** 2
        bad = ~np.isfinite(t)
        if np.any(bad):
            t = np.where(bad, 1e30 + 0.0j, t)
        return t

    # ------------------------------------------------------------------
    # periodic supplements (CauchyBuilt)

    def _t_supplement(self, w: np.ndarray, a: complex, r: complex) -> np.ndarray:
        c = PI / (2.0 * self.phi)
        return c * r * (_coth(c * (w - a)) + _coth(c * (-w + 1j * PI - a)))

    def T1(self, w):
        if self.kind != "CauchyBuilt" or self.phi <= 1.5 * PI:
            raise DomainError("T1 exists only for CauchyBuilt engines with Phi > 3*pi/2")
        arr, scalar = _as_c_array(w)
        _guard(arr, (self.q1, -self.q1 + 1j * PI), 2j * self.phi,
               self.pole_clearance, "T1")
        return _ret(self._t_supplement(arr, self.q1, self.branch.r1), scalar)

    def T2(self, w):
        if self.kind != "CauchyBuilt":
            raise DomainError("T2 exists only for CauchyBuilt engines")
        arr, scalar = _as_c_array(w)
        p1 = self.branch.p1
        _guard(arr, (p1, -p1 + 1j * PI), 2j * self.phi,
               self.pole_clearance, "T2")
        return _ret(self._t_supplement(arr, p1, self.branch.r2), scalar)

    # ------------------------------------------------------------------
    # elementary branch (Phi = 3*pi/2)

    def m_func(self, w):
        if self.kind != "Elementary":
            raise DomainError("m_func requires the Elementary engine")
        arr, scalar = _as_c_array(w)
        p1 = self.branch.p1
        _guard(arr, (p1, -p1), 1j * PI, self.pole_clearance, "m")
        # G2 is pi*i periodic here; evaluate it at the translate of w
        # nearest the real axis.
        z = _minus_nearest_image(arr, 0j, 0, 1)
        g2 = (1j * self.omega ** 2 * np.sinh(2.0 * z)
              / (self.omega ** 2 * np.sinh(z) ** 2 + self.k ** 2))
        val = (PI + 2j * arr) / (6.0 * PI) * g2
        return _ret(val, scalar)

    def _q_terms(self):
        p1 = self.branch.p1
        m1 = -p1 / (3.0 * PI) + 1j / 6.0
        m2 = -p1 / (3.0 * PI) - 1j / 6.0
        m3 = -p1 / (3.0 * PI) + 1j / 2.0
        # Terms c*coth((w-a)/3) of Q, anchor a = sign*p1 + l*pi*i given as
        # (sign*p1, l, c); anchors come in h1-conjugate pairs (a, pi*i-a)
        # with opposite coefficients, which is what makes Q automorphic
        # while repairing the residues of m.
        return (
            (p1, 0, (1j - m1) / 3.0),
            (-p1, 1, -(1j - m1) / 3.0),
            (p1, 1, -m2 / 3.0),
            (-p1, 0, m2 / 3.0),
            (p1, -1, -m3 / 3.0),
            (-p1, -1, m3 / 3.0),
        )

    def Q_func(self, w):
        if self.kind != "Elementary":
            raise DomainError("Q_func requires the Elementary engine")
        arr, scalar = _as_c_array(w)
        p1 = self.branch.p1
        _guard(arr, (p1, -p1), 1j * PI, self.pole_clearance, "Q")
        val = np.zeros(arr.shape, dtype=complex)
        for base, l, coeff in self._q_terms():
            # coth(z/3) is 3*pi*i periodic: reduce w - a by that period.
            val += coeff * _coth(_minus_nearest_image(arr, base, l, 3) / 3.0)
        return _ret(val, scalar)

    # ------------------------------------------------------------------
    # Cauchy tables

    def _g2_pole_list(self, re_lo: float, re_hi: float):
        out = []
        for a in self._g2_anchors():
            for n in range(-4, 5):
                pole = a + 2j * PI * n
                if re_lo <= pole.real <= re_hi:
                    out.append(pole)
        return out

    def _build_table(self, shift: float, W_table: float, max_panel: float) -> _CauchyTable:
        carrier = PI / 2.0 - self.phi
        level = carrier + shift

        # Panel breaks along the arc abscissa.
        dense_to = min(8.0, W_table)
        breaks = list(np.arange(0.0, dense_to, max_panel)) + [dense_to]
        width = max(max_panel, 0.5)
        x = dense_to
        while x < W_table:
            x = min(x + width, W_table)
            breaks.append(x)
            width *= 1.5
        breaks = np.unique(np.asarray(breaks))

        # Refine near projections of G2 poles close to this arc level.
        for pole in self._g2_pole_list(-0.5, W_table):
            gap = abs(curve_offset(self.omega, pole) - level)
            if gap < 0.6 and pole.real > -0.3:
                center = max(pole.real, breaks[1] * 0.5)
                breaks = _insert_refinement(breaks, center, max(gap / 4.0, 5e-4), 0.5)

        pieces = [_gamma_piece(self.omega, level, breaks)]
        if shift != 0.0:
            # Connector from the exact arc start (t=0) to the shifted level.
            npan = max(2, int(math.ceil(abs(shift) / 0.05)))
            pieces.insert(0, _vertical_piece(0.0, carrier, level, npan))
        w, dw, wt = (np.concatenate(parts) for parts in zip(*pieces))
        return _CauchyTable.from_nodes(shift, self.g2_hat(w), self.t_map(w),
                                       self.dt_map(w) * (dw * wt))

    def _build_cauchy(self, n_beta):
        W_table = (self.phi / PI) * 18.0 + 2.0

        # Clearance of G2 poles above/below the carrier limits the arc shifts.
        carrier = PI / 2.0 - self.phi
        gap_up = math.inf
        gap_dn = math.inf
        for pole in self._g2_pole_list(-0.5, W_table + 1.0):
            if pole.real <= -0.3:
                continue
            s = curve_offset(self.omega, pole) - carrier
            if s > 1e-12:
                gap_up = min(gap_up, s)
            elif s < -1e-12:
                gap_dn = min(gap_dn, -s)
        eta_up = min(0.3, gap_up / 2.0)
        eta_dn = min(0.3, gap_dn / 2.0)
        if eta_up <= 0.0 or eta_dn <= 0.0:
            raise DomainError("a G2 pole sits on the jump arc carrier")
        self._eta_up = eta_up
        self._eta_dn = eta_dn
        self._margin = 0.35

        base_panel = 0.25 if n_beta is None else max(8.0 / max(n_beta // 16, 4), 0.02)
        self._tables["base"] = self._build_table(0.0, W_table, base_panel)
        up_panel = min(base_panel, max(eta_up * 0.7, 0.02))
        dn_panel = min(base_panel, max(eta_dn * 0.7, 0.02))
        self._tables["up"] = self._build_table(+eta_up, W_table, up_panel)
        self._tables["down"] = self._build_table(-eta_dn, W_table, dn_panel)
        self.const_C = self._extract_C()
        self.const_C2 = math.log(4.0) * math.sin(self.phi) / PI - self.const_C

    # ------------------------------------------------------------------
    # Cauchy integral evaluation

    @staticmethod
    def _polyline_log(ux: np.ndarray, uy: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Int dt'/(t'-t) along the arc polyline 0 -> t_1 ... t_M -> 1.

        ux + i*uy holds t_j - t, one row per point.  The real parts of the
        segment logs telescope to log(|1-t|/|t|); the imaginary part sums
        the angle atan2(cross, dot) that each segment subtends at t.
        """
        x = t.real
        y = t.imag
        cross = ux[:, :-1] * uy[:, 1:]
        tmp = uy[:, :-1] * ux[:, 1:]
        cross -= tmp
        dot = np.multiply(ux[:, :-1], ux[:, 1:])
        np.multiply(uy[:, :-1], uy[:, 1:], out=tmp)
        dot += tmp
        ang = np.sum(np.arctan2(cross, dot, out=cross), axis=1)
        # The end segments 0 -> t_1 and t_M -> 1.
        ang += np.arctan2(y * ux[:, 0] - x * uy[:, 0],
                          -x * ux[:, 0] - y * uy[:, 0])
        ang += np.arctan2(-ux[:, -1] * y - uy[:, -1] * (1.0 - x),
                          ux[:, -1] * (1.0 - x) - uy[:, -1] * y)
        with np.errstate(divide="ignore"):
            return np.log(np.abs(1.0 - t) / np.abs(t)) + 1j * ang

    def _cauchy_eval(self, t: np.ndarray, table: _CauchyTable) -> np.ndarray:
        t = np.asarray(t, dtype=complex).ravel()
        out = np.empty(t.shape, dtype=complex)
        rows = max(1, _CAUCHY_BLOCK // table.t_re.size)
        for lo in range(0, t.size, rows):
            tc = t[lo:lo + rows]
            dx = table.t_re[None, :] - tc.real[:, None]
            dy = table.t_im[None, :] - tc.imag[:, None]
            r2 = dx * dx
            r2 += dy * dy
            jstar = np.argmin(r2, axis=1)
            rmin = r2[np.arange(tc.size), jstar]
            # Near zone: close to a node relative to local spacing, or close
            # to either arc endpoint (where the truncated tail of the plain
            # sum would be felt); only there is the exact polyline log used.
            near = np.flatnonzero(
                (rmin < table.near_r2[jstar])
                | (np.abs(tc - 1.0) < 1e-2)
                | (np.abs(tc) < 1e-2)
            )
            if near.size:
                L = self._polyline_log(dx[near], dy[near], tc[near])
            # 1/(t_j - t) = (dx - i*dy)/r2, so with dx, dy scaled by 1/r2 the
            # far sum of dens_j/(t_j - t) is two real (rows, M) x (M, 2)
            # products.  A point on a node, where the integral is undefined,
            # gives nan.
            with np.errstate(divide="ignore", invalid="ignore"):
                np.divide(1.0, r2, out=r2)
                dx *= r2
                dy *= r2
                a = dx @ table.dens_ri
                b = dy @ table.dens_ri
            vals = (a[:, 0] + b[:, 1]) + 1j * (a[:, 1] - b[:, 0])
            if near.size:
                # Subtract the density at the nearest node, whose term is then
                # exactly zero.
                g2s = table.g2[jstar[near]]
                inv = np.empty((near.size, table.t_re.size), dtype=complex)
                inv.real = dx[near]
                np.negative(dy[near], out=inv.imag)
                num = np.subtract(table.g2[None, :], g2s[:, None])
                num *= table.tpj
                num *= inv
                vals[near] = np.sum(num, axis=1) + g2s * L
            out[lo:lo + rows] = vals / (2j * PI)
        return out

    def _arc_distance(self, t: np.ndarray) -> np.ndarray:
        """Distance from t to the base arc polyline (segment-wise)."""
        poly = self._tables["base"].t_poly
        a = poly[:-1]
        b = poly[1:]
        ab = b - a
        denom = np.abs(ab) ** 2
        t = np.asarray(t, dtype=complex).ravel()
        az = t[:, None] - a[None, :]
        s = np.clip((az * np.conj(ab[None, :])).real / denom[None, :], 0.0, 1.0)
        d = np.abs(az - s * ab[None, :])
        return d.min(axis=1)

    def cauchy_a1(self, t, side: Optional[str] = None):
        """The Cauchy-type integral a1_check(t); side in {None,'upper','lower'}.

        With side=None the point must keep its distance from the arc;
        a one-sided boundary value (Plemelj limit) is returned otherwise.
        """
        if self.kind != "CauchyBuilt":
            raise DomainError("cauchy_a1 requires a CauchyBuilt engine")
        arr, scalar = _as_c_array(t)
        flat = arr.ravel()
        if side is None:
            d = self._arc_distance(flat)
            limit = self.tol.pole_clearance * np.minimum(1.0, np.abs(flat - 1.0))
            bad = d < limit
            if np.any(bad):
                jmin = int(np.argmax(bad))
                raise NearArcError(
                    f"t={flat[jmin]:.6g} is {d[jmin]:.3e} from the jump arc; "
                    "request side='upper' or side='lower'"
                )
            table = self._tables["base"]
        elif side == "upper":
            table = self._tables["down"]
        elif side == "lower":
            table = self._tables["up"]
        else:
            raise DomainError(f"side must be 'upper' or 'lower', got {side!r}")
        val = self._cauchy_eval(flat, table).reshape(arr.shape)
        return _ret(val, scalar)

    def _extract_C(self) -> complex:
        """Constant in a1_check(t) = (sin Phi/pi)*ln(1/(t-1)) + C + O(t-1)."""
        table = self._tables["base"]
        deltas = np.array([1e-4, 1e-5, 1e-6])
        vals = self._cauchy_eval(1.0 + deltas.astype(complex), table)
        c_of_d = vals + (math.sin(self.phi) / PI) * np.log(deltas)
        rich = []
        for i in range(len(deltas) - 1):
            d1, d2 = deltas[i], deltas[i + 1]
            v1, v2 = c_of_d[i], c_of_d[i + 1]
            rich.append((d1 * v2 - d2 * v1) / (d1 - d2))
        if abs(rich[0] - rich[1]) > 10.0 * self.tol.id_tol:
            raise ConvergenceError(
                f"constant extraction unsettled: {rich[0]:.8g} vs {rich[1]:.8g}"
            )
        return complex(rich[-1])

    # ------------------------------------------------------------------
    # a1 with strip reduction

    def _a1_base_strip(self, w: np.ndarray) -> np.ndarray:
        """a1 for points with sigma(w) in [0, 2*Phi) (the fundamental strip)."""
        sig = self._sigma(w)
        # The map is even under h1, folding Re w < 0 onto the mirror point
        # -w + pi*i whose strip coordinate is 2*Phi - sigma; the t-plane side
        # of the arc is decided by the folded coordinate.
        sig = np.where(w.real >= 0.0, sig, 2.0 * self.phi - sig)
        t = self._t_unguarded(w)
        out = np.empty(w.shape, dtype=complex)
        lo_mask = sig < self._margin
        hi_mask = sig > 2.0 * self.phi - self._margin
        mid_mask = ~(lo_mask | hi_mask)
        for mask, key in ((lo_mask, "down"), (hi_mask, "up"), (mid_mask, "base")):
            if np.any(mask):
                out[mask] = self._cauchy_eval(t[mask], self._tables[key])
        return out + self.const_C2

    def a1_hat(self, w):
        """a1 on the whole plane via the difference-equation extensions."""
        if self.kind != "CauchyBuilt":
            raise DomainError("a1_hat requires a CauchyBuilt engine")
        arr, scalar = _as_c_array(w)
        flat = arr.ravel()
        sraw = self._sigma(flat)
        j = np.floor(sraw / (2.0 * self.phi)).astype(int)
        base = flat - 2j * self.phi * j
        val = self._a1_base_strip(base)
        for jv in np.unique(j):
            if jv == 0:
                continue
            mask = j == jv
            if jv > 0:
                for l in range(jv):
                    val[mask] -= self.g2_hat(base[mask] + 2j * self.phi * l)
            else:
                for l in range(-jv):
                    val[mask] += self.g2_hat(flat[mask] + 2j * self.phi * l)
        return _ret(val.reshape(arr.shape), scalar)

    # ------------------------------------------------------------------
    # assembled kernels

    def v11_hat(self, w):
        arr, scalar = _as_c_array(w)
        if self.kind == "Elementary":
            val = self.m_func(arr) + self.Q_func(arr)
        else:
            val = self.a1_hat(arr) + self.T2(arr)
            if self.phi > 1.5 * PI:
                val = val + self.T1(arr)
        return _ret(np.asarray(val), scalar)

    def v1_hat(self, w):
        arr, scalar = _as_c_array(w)
        val = self.v11_hat(arr) - self.g_hat(arr)
        return _ret(np.asarray(val), scalar)

    # ------------------------------------------------------------------
    # introspection / export

    def pole_list(self) -> dict:
        p1 = self.branch.p1
        poles = {
            "p1": p1,
            "-p1-pi*i": -p1 - 1j * PI,
            "-p1+pi*i": -p1 + 1j * PI,
            "p1+2pi*i": p1 + 2j * PI,
        }
        if self.kind == "CauchyBuilt" and self.phi > 1.5 * PI:
            poles["q1"] = self.q1
            poles["-q1+pi*i"] = -self.q1 + 1j * PI
        return poles

    def branch_json(self) -> dict:
        def c(z):
            return None if z is None else [float(z.real), float(z.imag)]

        return {
            "kind": self.kind,
            "omega": c(self.omega),
            "phi": self.phi,
            "k": self.k,
            "p1": c(self.branch.p1),
            "r1": c(self.branch.r1),
            "r2": c(self.branch.r2),
            "C": c(self.const_C),
            "C2": c(self.const_C2),
            "poles": {name: c(z) for name, z in self.pole_list().items()},
        }


def build_engine(
    params: ProblemParams,
    k: Optional[float] = None,
    n_beta: Optional[int] = None,
) -> KernelEngine:
    """Construct a kernel engine for the given parameters and wavenumber."""
    if k is None:
        k = params.k1
    return KernelEngine(params, k, n_beta=n_beta)
