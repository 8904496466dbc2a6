"""Independent high-precision reference for the CauchyBuilt kernel.

A test helper, not package API.  It uses mpmath only and shares with the
package the formula of the strip kernel, not its quadrature:

    a1(w) - a1(w_ref) = (1/(4i*Phi)) Int_L G2(tau) [coth(c(tau - w))
                        - coth(c(tau - w_ref))] dtau,      c = pi/(2*Phi),

along the carrier L = Gamma_{pi/2-Phi}(omega), tau = x + i*(arctan(r*tanh x)
+ pi/2 - Phi), r = Re omega / Im omega.  The bracket decays like
e^{-pi*|x|/Phi}, so |x| <= 90 leaves less than 1e-19 out.  Both points must
lie in the strip 0 < sigma < 2*Phi above L.  Breakpoints sit at 0, +-1,
+-5, +-20, Re w, Re w_ref, under the poles tau = w and w - 2i*Phi of the
coth and under the poles of G2 near L, so a point near an edge of the strip,
or a density pole near the carrier, is integrated as accurately as the
rest.
"""

from __future__ import annotations

import mpmath as mp

DPS = 20
X_MAX = 90


def a1_difference(omega: complex, phi: float, k: float, w: complex,
                  w_ref: complex) -> complex:
    """a1(w) - a1(w_ref) by adaptive quadrature at DPS digits."""
    with mp.workdps(DPS):
        om = mp.mpc(omega)
        ph = mp.mpf(phi)
        kk = mp.mpf(k)
        r = om.real / om.imag
        c = mp.pi / (2 * ph)
        lift = mp.pi / 2 - ph
        zw = mp.mpc(w)
        zr = mp.mpc(w_ref)

        def g(z):
            return 1j * om * mp.sinh(z - 1j * ph) / (1j * om * mp.sinh(z) + kk)

        def g2(z):
            return g(z) - g(-z + 1j * mp.pi - 2j * ph)

        def carrier(x):
            return x + 1j * (mp.atan(r * mp.tanh(x)) + lift)

        def integrand(x):
            th = mp.tanh(x)
            tau = carrier(x)
            dtau = 1 + 1j * r * (1 - th * th) / (1 + (r * th) ** 2)
            bracket = mp.coth(c * (tau - zw)) - mp.coth(c * (tau - zr))
            return g2(tau) * bracket * dtau

        # Breakpoints under the poles tau = w and w - 2i*Phi of the coth and
        # under the poles of G2 within 1 of L: on a tilted carrier their
        # preimages sit off their real parts.
        p1 = mp.asinh(1j * kk / om)
        anchors = (p1, -p1 + 1j * mp.pi, p1 - 2j * ph, -p1 + 1j * mp.pi - 2j * ph)
        near = [zw, zw - 2j * ph]
        for s in anchors:
            for n in range(-3, 4):
                q = s + 2j * mp.pi * n
                if abs(q.imag - carrier(q.real).imag) < 1:
                    near.append(q)
        cuts = {-X_MAX, -20, -5, -1, 0, 1, 5, 20, X_MAX,
                float(zw.real), float(zr.real)}
        for z in near:
            try:
                cuts.add(float(mp.findroot(lambda x: carrier(x) - z, z.real).real))
            except (ValueError, ZeroDivisionError):
                pass
        pts = sorted(x for x in cuts if -X_MAX <= x <= X_MAX)
        val = mp.quad(integrand, pts) / (4j * ph)
        return complex(val)
