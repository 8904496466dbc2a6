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

* CauchyBuilt (any other Phi).  With c = pi/(2*Phi) and the carrier
  L = Gamma_{pi/2-Phi}, traversed left to right,

      a1(w) = (1/(4i*Phi)) Int_L G2(tau) coth(c*(tau - w)) dtau

  solves a1(w) - a1(w + 2i*Phi) = G2(w) in the strip between L and
  L + 2i*Phi: continuing across L + 2i*Phi picks up the residue at tau = w.
  a1 is extended beyond the strip by the difference equation, and
  v11 = a1 + T2 (Phi < 3*pi/2) or a1 + T1 + T2 (Phi > 3*pi/2) with periodic
  supplements T_j built from coth(c*(w - a)).  G2 tends to -+2i*sin(Phi)
  along L, so the part g_s*coth(c*(tau - pi*i/2)), g_s = -2i*sin(Phi), is
  split off; by coth(a)coth(b) = 1 + coth(a - b)(coth(b) - coth(a)) its
  transform is (sin Phi/Phi)*(w - pi*i/2)*coth(c*(w - pi*i/2)) plus a
  constant, which is exactly the growth sign(Re w)*(sin Phi/Phi)*
  (w - pi*i/2).  The transform of the rest R, which decays like
  e^{-pi*|Re tau|/Phi}, tends to -+(1/(4i*Phi))*Int_L R = 0 at the two ends
  (a1 is automorphic under h1, which swaps them), and T1, T2 vanish there,
  so the constant C2 that a1 adds is 0 and

      v11(w) = sign(Re w)*(sin Phi/Phi)*(w - pi*i/2) + O(e^{-pi*|Re w|/Phi}).

  The remainder exponent is forced by the difference equation; the
  derivation is in docs/decay_exponent.md.

Numerical notes
---------------
The R integral is a trapezoid sum in the parameter u of contour._Line,
with step h from a = arctan(Im omega / Re omega) (_Line.step) and tails to
|Re tau| = 34*Phi/pi.  With v_j = e^{2c*tau_j}, B = e^{2c*w} and weights
d_j, Sum d_j*coth(c*(tau_j - w)) = -Sum d_j + 2*Sum d_j*v_j/(v_j - B), a
Cauchy sum in B that runs in blocks of _CAUCHY_BLOCK (point, node) pairs as
two real matrix products per block.  A simple pole of the u-integrand with
residue R at u* near the real axis is restored by adding
pi*R*(cot(pi*(u* - u0)/h) + i*sign(Im u*)) (Trefethen and Weideman, SIAM
Rev. 56 (2014)): per point for the coth's pole tau* = w or w - 2i*Phi when
sigma is near 0 or 2*Phi, residue R(tau*)/c, located by _Line.locate and
summed on the grid shifted by h/2 when it lies within h/4 of a node; and
per engine for the G2 poles near L.  The sum is automorphic under h1 to
rounding by itself, so no fold by h1 is needed.

In the Elementary branch each coth((w - a)/3) term of Q (period 3*pi*i) and
the pi*i-periodic G2 inside m are evaluated at the translate of w - a (of w
for G2) by a whole number of periods that lies nearest the real axis.  The
periods are subtracted with pi split into two doubles and an error-free
difference; rounding w - a directly at |Im w| ~ 16 costs a point near a
pole up to 5e-13 of the difference-equation residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    PI,
    BranchPoint,
    ProblemParams,
    branch_point,
    validate_params,
)
from .contour import _Line, _missed_pole
from .errors import DomainError, PoleError

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
    j = int(np.argmin(d))  # a flat index, whatever the shape of w
    if d.flat[j] < clearance:
        raise PoleError(
            f"{what} evaluated {d.flat[j]:.3e} from pole {nearest.flat[j]:.6g}",
            nearest=complex(nearest.flat[j]),
            distance=float(d.flat[j]),
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


# Pairs of (evaluation point, line node) per block of the Cauchy sum: the
# three real work arrays of this many doubles, reused from block to block,
# stay cache resident.
_CAUCHY_BLOCK = 1 << 14

# Tail of the carrier: the density decays like e^{-pi*|x|/Phi}, and cutting
# it at |x| = X leaves e^{-_TAIL_EXP}.
_TAIL_EXP = 34.0

# A point whose pole preimage may lie within this many steps of the real u
# axis gets the pole correction; an uncorrected pole costs e^{-2*pi*7}.
_NEAR_STEPS = 7.0


@dataclass
class _Grid:
    """One trapezoid grid u0 + j*h on the carrier, ready for the Cauchy sum.

    Node j carries v_j = e^{2c*tau_j} and the weight d_j = R(tau_j) *
    tau'(u_j) * h; D_ri holds Re and Im of d_j * v_j.  Per density pole q
    near the carrier, poles_v holds e^{2c*q} and poles_kappa its
    _missed_pole term.
    """

    v_re: np.ndarray
    v_im: np.ndarray
    D_ri: np.ndarray
    sum_d: complex
    poles_v: np.ndarray
    poles_kappa: np.ndarray


class KernelEngine:
    """Immutable evaluator of G, G2, v11 and v1 for one (params, k) pair.

    Build with :func:`build_engine`.
    """

    def __init__(self, params: ProblemParams, k: float):
        validate_params(params)
        self.params = params
        self.k = float(k)
        self.phi = float(params.phi)
        self.omega = complex(params.omega)
        self.tol = params.tol
        self.branch: BranchPoint = branch_point(params, k)
        self.q1 = -self.branch.p1 - 1j * PI + 2j * self.phi
        self.kind = (
            "Elementary"
            if abs(self.phi - 1.5 * PI) < PHI_SWITCH_EPS
            else "CauchyBuilt"
        )
        self.const_C2: Optional[complex] = None
        # The carrier line (CauchyBuilt): step, node count, corrected poles.
        self.line_h: Optional[float] = None
        self.line_nodes = 0
        self.line_poles = np.empty(0, dtype=complex)
        if self.kind == "CauchyBuilt":
            self._build_line()

    # ------------------------------------------------------------------
    # geometry helpers

    def _sigma(self, w: np.ndarray) -> np.ndarray:
        """Strip coordinate: 0 on the carrier Gamma_{pi/2-Phi}, 2*Phi at top."""
        ratio = self.omega.real / self.omega.imag
        return w.imag - np.arctan(ratio * np.tanh(w.real)) - (PI / 2.0 - self.phi)

    # ------------------------------------------------------------------
    # elementary building blocks

    def g_hat(self, w):
        arr, scalar = _as_c_array(w)
        p1 = self.branch.p1
        _guard(arr, (p1, -p1 + 1j * PI), 2j * PI,
               self.tol.pole_clearance, "G")
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
               self.tol.pole_clearance, "G2")
        return _ret(self._g2(arr), scalar)

    def _g2(self, w: np.ndarray) -> np.ndarray:
        """G2 = G - G o h2 without the pole guard: the carrier's nodes and
        corrections come as close to a density pole as the geometry puts
        them."""
        h2 = -w + 1j * PI - 2j * self.phi
        num = lambda z: 1j * self.omega * np.sinh(z - 1j * self.phi)
        den = lambda z: 1j * self.omega * np.sinh(z) + self.k
        return num(w) / den(w) - num(h2) / den(h2)

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
               self.tol.pole_clearance, "T1")
        return _ret(self._t_supplement(arr, self.q1, self.branch.r1), scalar)

    def T2(self, w):
        if self.kind != "CauchyBuilt":
            raise DomainError("T2 exists only for CauchyBuilt engines")
        arr, scalar = _as_c_array(w)
        p1 = self.branch.p1
        _guard(arr, (p1, -p1 + 1j * PI), 2j * self.phi,
               self.tol.pole_clearance, "T2")
        return _ret(self._t_supplement(arr, p1, self.branch.r2), scalar)

    # ------------------------------------------------------------------
    # elementary branch (Phi = 3*pi/2)

    def m_func(self, w):
        if self.kind != "Elementary":
            raise DomainError("m_func requires the Elementary engine")
        arr, scalar = _as_c_array(w)
        p1 = self.branch.p1
        _guard(arr, (p1, -p1), 1j * PI, self.tol.pole_clearance, "m")
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
        _guard(arr, (p1, -p1), 1j * PI, self.tol.pole_clearance, "Q")
        val = np.zeros(arr.shape, dtype=complex)
        for base, l, coeff in self._q_terms():
            # coth(z/3) is 3*pi*i periodic: reduce w - a by that period.
            val += coeff * _coth(_minus_nearest_image(arr, base, l, 3) / 3.0)
        return _ret(val, scalar)

    # ------------------------------------------------------------------
    # the strip kernel as a trapezoid sum along the carrier

    def _density(self, tau: np.ndarray) -> np.ndarray:
        """R = G2 - g_s*coth(c*(tau - pi*i/2)), g_s = -2i*sin(Phi): the part
        of G2 that decays along the carrier (see the module docstring)."""
        gs = -2j * math.sin(self.phi)
        return self._g2(tau) - gs * _coth(self._c * (tau - 0.5j * PI))

    def _build_line(self) -> None:
        phi = self.phi
        self._c = c = PI / (2.0 * phi)
        line = self._line = _Line(self.omega, PI / 2.0 - phi)
        self.line_h = h = line.step
        X = (phi / PI) * _TAIL_EXP

        # Density poles within reach of the carrier: every G2 pole whose
        # offset from L is below the near-point cut.  Their residues are
        # r2, r1, r1, r2 at the four anchors (G2 = G - G o h2).
        shifts = 2j * PI * np.arange(-3, 4)
        cand = (np.asarray(self._g2_anchors())[:, None] + shifts).ravel()
        res = (self.branch.r2, self.branch.r1, self.branch.r1, self.branch.r2)
        cand_res = np.repeat(res, shifts.size)
        sig = self._sigma(cand)
        near = ((np.abs(sig) < line.reach(cand.real, _NEAR_STEPS * h))
                & (np.abs(cand.real) < X))
        if np.any(np.abs(sig[near]) < 1e-12):
            raise DomainError("a G2 pole sits on the carrier Gamma_{pi/2-Phi}")
        u_q, ok = line.locate(cand[near])
        self.line_poles = cand[near][ok]
        u_q = u_q[ok]
        res_q = cand_res[near][ok]

        self._grids = []
        for u0 in (0.0, 0.5 * h):
            _, tau, dtau = line.nodes(h, X, u0)
            d = self._density(tau) * dtau
            v = np.exp(2.0 * c * tau)
            D = d * v
            kappa = _missed_pole(res_q, u_q, u0, h, np.sign(u_q.imag))
            self._grids.append(_Grid(
                v_re=np.ascontiguousarray(v.real),
                v_im=np.ascontiguousarray(v.imag),
                D_ri=np.column_stack([D.real, D.imag]), sum_d=complex(d.sum()),
                poles_v=np.exp(2.0 * c * self.line_poles), poles_kappa=kappa,
            ))
        self.line_nodes = self._grids[0].v_re.size
        self.line_X = X
        # The growth condition needs no constant (see the module docstring).
        self.const_C2 = 0.0 + 0.0j

    def _cauchy_sum(self, B: np.ndarray, grid: _Grid) -> np.ndarray:
        """Sum of d_j*coth(c*(tau_j - w)) = -Sum d_j + 2*Sum d_j*v_j/(v_j - B).

        1/(v_j - B) = (dx - i*dy)/r2 with dx + i*dy = v_j - B, so with dx, dy
        scaled by 1/r2 the second sum is two real (rows, N) x (N, 2)
        products.
        """
        out = np.empty(B.shape, dtype=complex)
        rows = max(1, min(B.size, _CAUCHY_BLOCK // grid.v_re.size))
        work = np.empty((3, rows, grid.v_re.size))
        for lo in range(0, B.size, rows):
            bc = B[lo:lo + rows]
            dx, dy, r2 = work[:, :bc.size]
            np.subtract(grid.v_re, bc.real[:, None], out=dx)
            np.subtract(grid.v_im, bc.imag[:, None], out=dy)
            np.multiply(dx, dx, out=r2)
            r2 += dy * dy
            np.divide(1.0, r2, out=r2)
            dx *= r2
            dy *= r2
            a = dx @ grid.D_ri
            b = dy @ grid.D_ri
            out[lo:lo + rows] = (a[:, 0] + b[:, 1]) + 1j * (a[:, 1] - b[:, 0])
        out *= 2.0
        out -= grid.sum_d
        if grid.poles_v.size:
            pv = grid.poles_v[None, :]
            out += ((pv + B[:, None]) / (pv - B[:, None])) @ grid.poles_kappa
        return out

    # ------------------------------------------------------------------
    # a1 with strip reduction

    def _a1_base_strip(self, w: np.ndarray) -> np.ndarray:
        """a1 for points with sigma(w) in [0, 2*Phi) (the fundamental strip)."""
        c = self._c
        h = self.line_h
        two_phi = 2.0 * self.phi
        sig = self._sigma(w)
        # Beyond |Re w| = X + 80 every coth(c*(tau_j - w)) is -+1 to double
        # precision; clipping keeps B finite.
        lim = self.line_X + 80.0
        B = np.exp(2.0 * c * (np.clip(w.real, -lim, lim) + 1j * w.imag))

        # The poles tau* = w (above L, sigma near 0) and w - 2i*Phi (below
        # L, sigma near 2*Phi) of coth(c*(tau - w)), located in u.  Beyond
        # the last node the line has no nodes left to correct.
        cut = np.where(np.abs(w.real) < self.line_X,
                       self._line.reach(w.real, _NEAR_STEPS * h), -1.0)
        poles = []
        grid_of = np.zeros(w.shape, dtype=int)
        for side, mask, shift in ((1.0, sig < cut, 0.0),
                                  (-1.0, sig > two_phi - cut, -2j * self.phi)):
            idx = np.flatnonzero(mask)
            if idx.size:
                zstar = w[idx] + shift
                u_s, ok = self._line.locate(zstar)
                # A root on the wrong side of the real u axis lies on another
                # sheet of the map, beyond the curve's singularities.
                ok &= side * u_s.imag > -1e-12
                idx, zstar, u_s = idx[ok], zstar[ok], u_s[ok]
                # A pole within h/4 of a node of the main grid is corrected
                # on the grid shifted by h/2, where it keeps h/4 away.
                frac = u_s.real / h
                grid_of[idx[np.abs(frac - np.round(frac)) < 0.25]] = 1
                poles.append((side, idx, zstar, u_s))

        out = np.empty(w.shape, dtype=complex)
        for g, grid in enumerate(self._grids):
            idx = np.flatnonzero(grid_of == g)
            if idx.size:
                out[idx] = self._cauchy_sum(B[idx], grid)
        for side, idx, zstar, u_s in poles:
            # On L itself (sigma = 0) this is the limit from inside the strip.
            u0 = 0.5 * h * grid_of[idx]
            res = self._density(zstar) / c
            out[idx] += _missed_pole(res, u_s, u0, h, side)

        zc = w - 0.5j * PI
        with np.errstate(divide="ignore", invalid="ignore"):
            lin = np.where(zc == 0.0, 1.0 / c, zc * _coth(c * zc))
        return (out / (4j * self.phi) + (math.sin(self.phi) / self.phi) * lin
                + self.const_C2)

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
            "C": c(None if self.const_C2 is None
                   else math.log(4.0) * math.sin(self.phi) / PI - self.const_C2),
            "C2": c(self.const_C2),
            "poles": {name: c(z) for name, z in self.pole_list().items()},
            "line_h": self.line_h,
            "line_nodes": self.line_nodes,
            "line_poles": [c(q) for q in self.line_poles],
        }


def build_engine(params: ProblemParams, k: Optional[float] = None) -> KernelEngine:
    """Construct a kernel engine for the given parameters and wavenumber."""
    if k is None:
        k = params.k1
    return KernelEngine(params, k)
