"""Wootters' concurrence to 50 significant digits, with the standard library only.

A reference for the float64 concurrence: it needs neither numpy nor mpmath.
A complex 4x4 matrix M = A + iB is carried as its real 8x8 embedding
E(M) = [[A, -B], [B, A]], which maps products to products and M^H to the
transpose, so a Hermitian M has a symmetric E(M) with M's spectrum, each
eigenvalue twice.  Cyclic Jacobi diagonalizes E(rho) = Q diag(d) Q^T, and
Q diag(sqrt(d)) Q^T is E(sqrt(rho)) with no complex eigenvector to pick out
(a repeated or tiny eigenvalue is harmless).  A second Jacobi gives the
spectrum of E(R), R = sqrt(rho) rho~ sqrt(rho), whose eigenvalues are the
squared lambdas (Wootters, PRL 80, 2245 (1998)).

A slightly indefinite input is not made PSD first.  Its negative eigenvalues
are clamped to 0 in sqrt(rho), but rho~ is built from rho as given, so it
keeps them.  The float path builds both from one factor rho = X X^H, which
drops them, so for such an input the two compute different quantities: on
state 1385 of the RK4 trajectory of bell("psi_plus") at g = 0.99 (2,001
samples on [0, 5], smallest eigenvalue -5.5e-15) they differ by 5.8e-15.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

DIGITS = 50
#: sigma_2 x sigma_2 is anti-diagonal with these signs: (s2 x s2)[j, 3 - j] = _FLIP[j]
_FLIP = (-1, 1, 1, -1)


def _jacobi(a: list, vectors: bool):
    """Eigenvalues of the symmetric matrix ``a`` (overwritten), and Q if ``vectors``."""
    n = len(a)
    q = [[Decimal(int(i == j)) for j in range(n)] for i in range(n)] if vectors else None
    # off-diagonal mass below 1e-46 of the norm, a few digits above the rounding
    tiny = sum(x * x for row in a for x in row) * Decimal(10) ** (8 - 2 * DIGITS)
    for _ in range(30):
        if sum(a[i][j] ** 2 for i in range(n) for j in range(i + 1, n)) <= tiny:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                if not a[p][r]:
                    continue
                theta = (a[r][r] - a[p][p]) / (2 * a[p][r])
                t = (1 if theta >= 0 else -1) / (abs(theta) + (theta * theta + 1).sqrt())
                c = 1 / (t * t + 1).sqrt()
                s = t * c
                for row in a:  # a J
                    row[p], row[r] = c * row[p] - s * row[r], s * row[p] + c * row[r]
                a[p], a[r] = (  # J^T (a J)
                    [c * x - s * y for x, y in zip(a[p], a[r])],
                    [s * x + c * y for x, y in zip(a[p], a[r])],
                )
                a[p][r] = a[r][p] = Decimal(0)
                for row in q or ():
                    row[p], row[r] = c * row[p] - s * row[r], s * row[p] + c * row[r]
    return [a[i][i] for i in range(n)], q


def _matmul(x: list, y: list) -> list:
    cols = list(zip(*y))
    return [[sum(u * v for u, v in zip(row, col)) for col in cols] for row in x]


def _embed(re: list, im: list) -> list:
    return [re[j] + [-x for x in im[j]] for j in range(4)] + [im[j] + re[j] for j in range(4)]


def concurrence(rho) -> Decimal:
    """Concurrence of the Hermitian part of a 4x4 matrix of Python or numpy
    complex numbers, each read exactly, to about ``DIGITS`` digits."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        z = [[complex(x) for x in row] for row in rho]
        re = [[(Decimal(z[j][k].real) + Decimal(z[k][j].real)) / 2 for k in range(4)]
              for j in range(4)]
        im = [[(Decimal(z[j][k].imag) - Decimal(z[k][j].imag)) / 2 for k in range(4)]
              for j in range(4)]
        d, q = _jacobi(_embed(re, im), vectors=True)
        root = [[x * max(w, Decimal(0)).sqrt() for x, w in zip(row, d)] for row in q]
        sqrt_rho = _matmul(root, [list(col) for col in zip(*q)])
        # rho~ = (s2 x s2) conj(rho) (s2 x s2), entry by entry
        sign = [[_FLIP[j] * _FLIP[k] for k in range(4)] for j in range(4)]
        flip_re = [[sign[j][k] * re[3 - j][3 - k] for k in range(4)] for j in range(4)]
        flip_im = [[-sign[j][k] * im[3 - j][3 - k] for k in range(4)] for j in range(4)]
        r = _matmul(_matmul(sqrt_rho, _embed(flip_re, flip_im)), sqrt_rho)
        r = [[(r[j][k] + r[k][j]) / 2 for k in range(8)] for j in range(8)]
        squares = sorted(_jacobi(r, vectors=False)[0], reverse=True)[::2]
        lam = [max(x, Decimal(0)).sqrt() for x in squares]
        return +max(lam[0] - lam[1] - lam[2] - lam[3], Decimal(0))
