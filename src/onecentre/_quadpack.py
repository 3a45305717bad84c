"""QUADPACK's adaptive Gauss-Kronrod integrator `dqagse`, over Python floats.

`qagse` is `dqagse` of Piessens, de Doncker-Kapenga, Ueberhuber & Kahaner,
*QUADPACK* (Springer, 1983): globally adaptive bisection with the 21-point
Gauss-Kronrod rule `dqk21`, the error-ordered interval list of `dqpsrt`, and
Wynn's epsilon algorithm `dqelg` (at most `LIMEXP` table elements) to
extrapolate over the intervals that stay the smallest.  It is the routine
behind `scipy.integrate.quad` on a finite interval.  Each routine is a
line-by-line port: the same branches, the same operation order, the rule's
constants as QUADPACK states them, and `d1mach` as the IEEE double limits.
It serves the quadrature engine's one request: absolute tolerance 0, at
most `LIMIT` subintervals, only the value and error estimate back; what
serves only `dqagse`'s returned `ier` and evaluation count is left out.
One interface differs: the integrand is a panel function, which `qk21`
calls once with a panel's 21 abscissae, in the order `dqk21` evaluates
them, so a caller can compute a whole panel in one loop.
tests/test_quadpack.py checks value and error estimate bitwise against
`scipy.integrate.quad` with the same options, the abscissae and their count
against the points quad evaluates, and that its grid reaches every `ier`.

The lists keep QUADPACK's 1-based indices (entry 0 unused), so the
translation can be read against the Fortran.
"""

from __future__ import annotations

#: d1mach(4), d1mach(1), d1mach(2): spacing at 1, smallest normal, largest
_EPMACH = 2.220446049250313e-16
_UFLOW = 2.2250738585072014e-308
_OFLOW = 1.7976931348623157e308
#: most elements of the epsilon table
LIMEXP = 50
#: most subintervals of one `qagse` run
LIMIT = 200

# dqk21: abscissae xgk of the 21-point Kronrod rule (even indices are the
# 10-point Gauss nodes), Kronrod weights wgk and Gauss weights wg
_XGK1 = 0.995657163025808080735527280689003
_XGK2 = 0.973906528517171720077964012084452
_XGK3 = 0.930157491355708226001207180059508
_XGK4 = 0.865063366688984510732096688423493
_XGK5 = 0.780817726586416897063717578345042
_XGK6 = 0.679409568299024406234327365114874
_XGK7 = 0.562757134668604683339000099272694
_XGK8 = 0.433395394129247190799265943165784
_XGK9 = 0.294392862701460198131126603103866
_XGK10 = 0.148874338981631210884826001129720
_WGK1 = 0.011694638867371874278064396062192
_WGK2 = 0.032558162307964727478818972459390
_WGK3 = 0.054755896574351996031381300244580
_WGK4 = 0.075039674810919952767043140916190
_WGK5 = 0.093125454583697605535065465083366
_WGK6 = 0.109387158802297641899210590325805
_WGK7 = 0.123491976262065851077958109831074
_WGK8 = 0.134709217311473325928054001771707
_WGK9 = 0.142775938577060080797094273138717
_WGK10 = 0.147739104901338491374841515972068
_WGK11 = 0.149445554002916905664936468389821
_WG1 = 0.066671344308688137593568809893332
_WG2 = 0.149451349150580593145776339657697
_WG3 = 0.219086362515982043995534934228163
_WG4 = 0.269266719309996355091226921569469
_WG5 = 0.295524224714752870173892994651338


def qk21(f, a, b):
    """21-point Gauss-Kronrod rule on [a, b]: (result, abserr, resabs, resasc).

    resabs approximates the integral of |f|, resasc that of |f - mean f|.
    f is a panel function: one call receives the 21 abscissae in the order
    `dqk21` evaluates them (the centre, then the Gauss pairs, then the
    Kronrod-only pairs, left node first) and returns the values there, in
    the same order.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    absc1 = hlgth * _XGK1
    absc2 = hlgth * _XGK2
    absc3 = hlgth * _XGK3
    absc4 = hlgth * _XGK4
    absc5 = hlgth * _XGK5
    absc6 = hlgth * _XGK6
    absc7 = hlgth * _XGK7
    absc8 = hlgth * _XGK8
    absc9 = hlgth * _XGK9
    absc10 = hlgth * _XGK10
    (fc, u2, v2, u4, v4, u6, v6, u8, v8, u10, v10,
     u1, v1, u3, v3, u5, v5, u7, v7, u9, v9) = f((
         centr, centr - absc2, centr + absc2, centr - absc4, centr + absc4,
         centr - absc6, centr + absc6, centr - absc8, centr + absc8,
         centr - absc10, centr + absc10, centr - absc1, centr + absc1,
         centr - absc3, centr + absc3, centr - absc5, centr + absc5,
         centr - absc7, centr + absc7, centr - absc9, centr + absc9))

    resk = _WGK11 * fc
    resabs = abs(resk)
    fsum = u2 + v2
    resg = _WG1 * fsum
    resk += _WGK2 * fsum
    resabs += _WGK2 * (abs(u2) + abs(v2))
    fsum = u4 + v4
    resg += _WG2 * fsum
    resk += _WGK4 * fsum
    resabs += _WGK4 * (abs(u4) + abs(v4))
    fsum = u6 + v6
    resg += _WG3 * fsum
    resk += _WGK6 * fsum
    resabs += _WGK6 * (abs(u6) + abs(v6))
    fsum = u8 + v8
    resg += _WG4 * fsum
    resk += _WGK8 * fsum
    resabs += _WGK8 * (abs(u8) + abs(v8))
    fsum = u10 + v10
    resg += _WG5 * fsum
    resk += _WGK10 * fsum
    resabs += _WGK10 * (abs(u10) + abs(v10))

    fsum = u1 + v1
    resk += _WGK1 * fsum
    resabs += _WGK1 * (abs(u1) + abs(v1))
    fsum = u3 + v3
    resk += _WGK3 * fsum
    resabs += _WGK3 * (abs(u3) + abs(v3))
    fsum = u5 + v5
    resk += _WGK5 * fsum
    resabs += _WGK5 * (abs(u5) + abs(v5))
    fsum = u7 + v7
    resk += _WGK7 * fsum
    resabs += _WGK7 * (abs(u7) + abs(v7))
    fsum = u9 + v9
    resk += _WGK9 * fsum
    resabs += _WGK9 * (abs(u9) + abs(v9))

    reskh = resk * 0.5
    resasc = (_WGK11 * abs(fc - reskh)
              + _WGK1 * (abs(u1 - reskh) + abs(v1 - reskh))
              + _WGK2 * (abs(u2 - reskh) + abs(v2 - reskh))
              + _WGK3 * (abs(u3 - reskh) + abs(v3 - reskh))
              + _WGK4 * (abs(u4 - reskh) + abs(v4 - reskh))
              + _WGK5 * (abs(u5 - reskh) + abs(v5 - reskh))
              + _WGK6 * (abs(u6 - reskh) + abs(v6 - reskh))
              + _WGK7 * (abs(u7 - reskh) + abs(v7 - reskh))
              + _WGK8 * (abs(u8 - reskh) + abs(v8 - reskh))
              + _WGK9 * (abs(u9 - reskh) + abs(v9 - reskh))
              + _WGK10 * (abs(u10 - reskh) + abs(v10 - reskh)))
    result = resk * hlgth
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, q**1.5), without the overflow of q**1.5 for large q
        q = 200.0 * abserr / resasc
        abserr = resasc * (q ** 1.5 if q < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(_EPMACH * 50.0 * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(last, maxerr, elist, iord, nrmax):
    """`dqpsrt`: keep iord descending in elist after a bisection, and return
    the interval to bisect next, (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # subdivision increased the error: move up past the nrmax-1 largest
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the jupbn largest errors are kept in order
        jupbn = last
        if last > LIMIT // 2 + 2:
            jupbn = LIMIT + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax here, then errmin bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """`dqelg`: one step of Wynn's epsilon algorithm on epstab[1..n].

    Returns (n, result, abserr, nres); epstab and res3la (the last three
    results) are updated in place.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        # two elements very close, or irregular behaviour: cut the table
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res

    # shift the table
    if n == LIMEXP:
        n = 2 * (LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qagse(f, a, b, epsrel):
    """(result, abserr): `dqagse` for integral_a^b f at absolute tolerance
    0 (the 0.0 of each error bound), relative tolerance epsrel and at most
    `LIMIT` subintervals.

    f is a panel function, called once per 21-node Kronrod panel (see
    `qk21`).  An exception raised by f propagates.  QUADPACK's ier still
    picks the exits (1 `LIMIT` subintervals used, 2 roundoff, 4 the
    extrapolation does not converge, 5 probably divergent); it is not
    returned.
    """
    result, abserr, defabs, resabs = qk21(f, a, b)
    dres = abs(result)
    errbnd = max(0.0, epsrel * dres)
    # roundoff already stops the requested accuracy (ier 2), or converged
    if ((abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd)
            or (abserr <= errbnd and abserr != resabs) or abserr == 0.0):
        return result, abserr

    alist = [0.0, a] + [0.0] * (LIMIT - 1)
    blist = [0.0, b] + [0.0] * (LIMIT - 1)
    rlist = [0.0, result] + [0.0] * (LIMIT - 1)
    elist = [0.0, abserr] + [0.0] * (LIMIT - 1)
    iord = [0, 1] + [0] * LIMIT
    rlist2 = [0.0] * (LIMEXP + 3)
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ier = 0
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0

    for last in range(2, LIMIT + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = qk21(f, a1, b1)
        area2, error2, _, defab2 = qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(0.0, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == LIMIT:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            return _sum_of_intervals(rlist, last, errsum)
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the interval to bisect is a smallest one
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: bisect the
            # larger intervals first, while their errors exceed ertest
            jupbnd = last
            if last > 2 + LIMIT // 2:
                jupbnd = LIMIT + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                larger = abs(blist[maxerr] - alist[maxerr]) > small
                if larger:
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(0.0, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare the bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set the final result and error estimate
    if abserr == _OFLOW:
        return _sum_of_intervals(rlist, last, errsum)
    if ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if result != 0.0 and area != 0.0:
            if abserr / abs(result) > errsum / abs(area):
                return _sum_of_intervals(rlist, last, errsum)
        elif abserr > errsum:
            return _sum_of_intervals(rlist, last, errsum)
    return result, abserr


def _sum_of_intervals(rlist, last, errsum):
    """The exit that sums the interval contributions, left to right."""
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result, errsum
