"""Scalar ports of the special functions and the minimiser that polab needs,
so that its runtime needs numpy alone. Each names its source and gives its
bits. ``decimal`` and ``fractions`` load on first use: only the F tail needs
them.
"""

from __future__ import annotations

import math

from .errors import NumericError


#: machine epsilon of cephes (2**-53) and the Euler-Maclaurin coefficients
#: (2k)! / B_2k of its Hurwitz zeta
_MACHEP = 1.11022302462515654042e-16
_ZETA_A = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)


def _zeta(x: float, q: float) -> float:
    """Hurwitz zeta sum_{k>=0} (k + q)**-x for x > 1 and q >= 1.

    A line-for-line port of cephes ``zeta`` (``scipy.special.zeta``): direct
    summation until the terms vanish or pass q + 9, then the Euler-Maclaurin
    tail; above q = 1e8 the leading terms of the asymptotic expansion (DLMF
    25.11.43). Powers use ``**``, the C library's ``pow``, as cephes does:
    NumPy's vectorised ``power`` may round differently in the last place.
    """
    x, q = float(x), float(q)
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
    nx = -x
    s = q**nx
    a = q
    b = 0.0
    i = 0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**nx
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _minimize_bounded(func, lo: float, hi: float, xatol: float, maxfun: int = 500) -> float:
    """Brent's bounded minimisation of ``func`` on [lo, hi]: golden-section
    steps with parabolic interpolation where it is acceptable. A port of
    scipy's ``_minimize_scalar_bounded`` that returns only the minimiser."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the last three points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign_or_one(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + _sign_or_one(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf


def _sign_or_one(v: float) -> int:
    """sign(v), with 1 at zero (scipy's ``np.sign(v) + (v == 0)``)."""
    return -1 if v < 0 else 1


# pi to 60 significant digits: 1/B(a, b) needs it only when both degrees of
# freedom are odd
_PI = "3.14159265358979323846264338327950288419716939937510582097494"


def _half_gamma(h: int):
    """Gamma(h/2) / sqrt(pi)**(h % 2), which is rational, as a Fraction."""
    from fractions import Fraction

    if h % 2 == 0:
        return Fraction(math.factorial(h // 2 - 1))
    k = h // 2
    return Fraction(math.factorial(2 * k), 4**k * math.factorial(k))


def _beta_cf(x, a, b, eps, tiny):
    """The incomplete beta's continued fraction by Lentz's method
    (Numerical Recipes' ``betacf``); it converges fast for
    x < (a + 1)/(a + b + 2)."""
    from decimal import Decimal

    qab, qap, qam = a + b, a + 1, a - 1
    c = Decimal(1)
    d = 1 - qab * x / qap
    d = 1 / (d if abs(d) >= tiny else tiny)
    h = d
    for m in range(1, 100_000):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1 + aa * d
            d = 1 / (d if abs(d) >= tiny else tiny)
            c = 1 + aa / c
            c = c if abs(c) >= tiny else tiny
            h *= d * c
        if abs(d * c - 1) < eps:
            return h
    raise NumericError(f"incomplete beta continued fraction did not converge at x={x}")


def _f_survival(dfn: int, dfd: int, f: float, digits: int = 50) -> float:
    """P(F > f) for F ~ F(dfn, dfd), correctly rounded to a float.

    The upper tail is the regularized incomplete beta I_x(dfd/2, dfn/2) at
    x = dfd/(dfd + dfn*f). It is computed in ``decimal`` at ``digits``
    significant digits, whose ``ln`` and ``exp`` are correctly rounded, and
    rounded to float once, so the result does not depend on the platform's
    libm. 1/B(a, b) is exact from integer factorials; the sqrt(pi) factors of
    the half-integer gammas cancel unless both dfs are odd, which leaves 1/pi.
    Edges follow ``scipy.special.fdtrc``: 1.0 at f = 0, NaN at NaN, 0.0 at +inf.
    """
    if math.isnan(f):
        return math.nan
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    import decimal

    D = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=digits)):
        g = dfn * D(f)
        s = dfd + g
        x, y = dfd / s, g / s  # y = 1 - x without the cancellation
        a, b = D(dfd) / 2, D(dfn) / 2
        q = _half_gamma(dfd + dfn) / (_half_gamma(dfd) * _half_gamma(dfn))
        inv_beta = D(q.numerator) / q.denominator
        if dfd % 2 and dfn % 2:
            inv_beta /= D(_PI)
        # x**a * y**b / B(a, b), the front factor shared by both branches
        front = (a * x.ln() + b * y.ln()).exp() * inv_beta
        eps, tiny = D(1).scaleb(2 - digits), D(1).scaleb(-4 * digits)
        if x < (a + 1) / (a + b + 2):
            p = front * _beta_cf(x, a, b, eps, tiny) / a
        else:
            p = 1 - front * _beta_cf(y, b, a, eps, tiny) / b
        return float(p)
