"""The closed-form propagator to 50 significant digits, with the standard library only.

A reference for the float64 ``twoatom.propagator.evolve``: it needs neither
numpy nor mpmath.  It writes out README's Dicke-basis rate law.  In the basis
{|11>, |s>, |a>, |00>} (indices 0 to 3) the levels decay at G = (2 gamma0,
gamma0 + gamma, gamma0 - gamma, 0), and element (i, j) at k_ij = (G_i + G_j)/2.
Four elements are also fed from above, each by the divided difference
f(a, b, t) = (e^{-bt} - e^{-at})/(a - b), or t e^{-at} at a = b:

    r_ss(t)  = r_ss e^{-G_1 t}  +  G_1 r_11,11 f(G_1, G_0, t)
    r_aa(t)  = r_aa e^{-G_2 t}  +  G_2 r_11,11 f(G_2, G_0, t)
    r_s0(t)  = r_s0 e^{-k_13 t} +  G_1 r_11,s  f(k_13, k_01, t)
    r_a0(t)  = r_a0 e^{-k_23 t} -  G_2 r_11,a  f(k_23, k_02, t)

The elements below the diagonal are the conjugates of these, and |00><00|
takes the trace the excited levels lose.  Each double input is read exactly.
The rates come from gamma = fl(g * gamma0), the double the library computes,
so the reference and the library share their rates up to the rounding of a
sum.  At 50 digits the difference e^{-bt} - e^{-at} keeps at least 30 digits
for every (a - b) t down to 1e-20.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

DIGITS = 50


def _complex(z) -> tuple:
    z = complex(z)
    return Decimal(z.real), Decimal(z.imag)


def _rotate(m: list, h: Decimal) -> list:
    """U m U for the real symmetric U that mixes indices 1 and 2 by h = sqrt(1/2);
    U = U^-1 maps the product basis to the Dicke basis and back."""
    def mix(rows):
        rows = [list(r) for r in rows]
        a, b = rows[1], rows[2]
        rows[1] = [(h * (x[0] + y[0]), h * (x[1] + y[1])) for x, y in zip(a, b)]
        rows[2] = [(h * (x[0] - y[0]), h * (x[1] - y[1])) for x, y in zip(a, b)]
        return rows

    rows = mix(m)
    return [list(col) for col in zip(*mix(list(zip(*rows))))]


def evolve(rho, gamma0: float, g: float, times) -> list:
    """States at each of ``times`` started from the 4x4 ``rho``, in the product
    basis, each a 4x4 list of (real, imaginary) Decimal pairs."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        h = Decimal("0.5").sqrt()
        g0, gamma = Decimal(gamma0), Decimal(g * gamma0)
        rates = [2 * g0, g0 + gamma, g0 - gamma, Decimal(0)]
        k = [[(a + b) / 2 for b in rates] for a in rates]
        r = _rotate([[_complex(z) for z in row] for row in rho], h)
        out = []
        for t in times:
            t = Decimal(t)
            e = [[(-x * t).exp() for x in row] for row in k]

            def fed(i, j, p, q):
                """f(k_ij, k_pq, t)."""
                d = k[i][j] - k[p][q]
                return (e[p][q] - e[i][j]) / d if d else t * e[i][j]

            s = [[(e[i][j] * x[0], e[i][j] * x[1]) for j, x in enumerate(row)]
                 for i, row in enumerate(r)]
            for (i, j), (p, q), w in (((1, 1), (0, 0), rates[1]), ((2, 2), (0, 0), rates[2]),
                                      ((1, 3), (0, 1), rates[1]), ((2, 3), (0, 2), -rates[2])):
                c = w * fed(i, j, p, q)
                fr, fi = c * r[p][q][0], c * r[p][q][1]
                s[i][j] = (s[i][j][0] + fr, s[i][j][1] + fi)
                if i != j:
                    s[j][i] = (s[j][i][0] + fr, s[j][i][1] - fi)
            # |00><00| takes what the excited levels lose
            s[3][3] = tuple(r[3][3][n] + sum(r[i][i][n] - s[i][i][n] for i in range(3))
                            for n in (0, 1))
            out.append(_rotate(s, h))
        return out
