"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row vectors.  Nothing
here ever rounds: reduced row echelon form (eliminated on integers), nullspaces,
solving, and characteristic polynomials are all exact, so two subspaces are
equal exactly when their canonical echelon matrices are equal.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction (exact)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vec(entries: Iterable) -> Vector:
    return tuple(e if isinstance(e, Fraction) else frac(e) for e in entries)


def support(entries: Sequence, n: int) -> list[tuple[int, Fraction]]:
    """(index, value) of the nonzero entries of a vector in Q^n.

    A vector of another length is a ValueError.  An entry that is not a
    Fraction goes through `frac`, zero or not, so a float is a TypeError; a
    Fraction is taken as it is.
    """
    if len(entries) != n:
        raise ValueError(f"vector of length {len(entries)} in Q^{n}")
    out = []
    for i, e in enumerate(entries):
        if not isinstance(e, Fraction):
            e = frac(e)
        if e:
            out.append((i, e))
    return out


def unit_vec(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c: Fraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)


def lincomb(coeffs: Sequence, rows: Sequence[Vector]) -> Vector:
    """sum of coeffs[i] * rows[i] over the first len(coeffs) rows.

    Lifts coordinates back to ambient vectors; rows must be nonempty.
    """
    out = [ZERO] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for j, x in enumerate(row):
                if x:
                    out[j] += c * x
    return tuple(out)


def is_zero_vec(a: Vector) -> bool:
    return all(x == 0 for x in a)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(r) for r in rows)


def identity(n: int) -> Matrix:
    return tuple(unit_vec(n, i) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    if not m:
        return ()
    return tuple(zip(*m, strict=True))


def matvec(m: Matrix, v: Vector) -> Vector:
    """m @ v, multiplying only where both the entry of m and of v are nonzero."""
    support = [(j, x) for j, x in enumerate(v) if x]
    return tuple(sum((row[j] * x for j, x in support if row[j]), ZERO) for row in m)


def _integer_row(row: Iterable) -> list[int]:
    """The row times the lcm of its denominators, as ints; a row of ints as it is."""
    row = list(row)
    if all(type(x) is int for x in row):
        return row
    pairs = [(x if isinstance(x, (int, Fraction)) else frac(x)).as_integer_ratio() for x in row]
    scale = math.lcm(*[d for _, d in pairs])
    if scale == 1:
        return [n for n, _ in pairs]
    return [n * (scale // d) for n, d in pairs]


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with leading 1s; returns (rref, pivot columns).

    Zero rows are dropped, so the result is the canonical representative of
    the row space: equal row spaces give identical outputs.  Rows of unequal
    length are a ValueError; an entry that is not an int, Fraction or 'p/q'
    string is a TypeError.

    Fraction-free Gauss-Jordan: each row is scaled once to integers by the
    lcm of its denominators (a row of ints is taken as it is).  To clear
    column c of row i against the pivot p of row r, row i becomes
    (p/g) row_i - (f/g) row_r, with f = row_i[c] and g = gcd(p, f), and is
    then divided by its content (the gcd of its entries).  These are
    invertible row operations, so the row space never changes.  Every row
    stays primitive, and a primitive row is fixed up to sign by the input
    and the columns cleared so far, so its entries are bounded by minors of
    the scaled input, as in Bareiss (*Math. Comp.* 22, 1968).  Only at the
    end is each pivot row divided by its pivot.  The reduced row echelon
    form of a row space is unique, so the output is exactly that of
    elimination over Fraction.
    Cost: O(r n min(r, n)) integer multiply-adds and gcds on an r x n
    input, where elimination over Fraction pays a gcd on every multiply
    and subtract; the only Fractions built are the output entries.
    """
    work = [_integer_row(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    if any(len(row) != ncols for row in work):
        raise ValueError("rows of unequal length")
    work = [row for row in work if any(row)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        p = prow[c]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(row, prow)]
                content = math.gcd(*new)
                if content > 1:
                    new = [x // content for x in new]
                work[i] = new
        pivots.append(c)
        r += 1
    echelon = tuple(
        tuple(Fraction(x, row[c]) if x else ZERO for x in row)
        for row, c in zip(work, pivots)
    )
    return echelon, tuple(pivots)


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[Vector]:
    """Canonical basis of {x : rows @ x = 0}.

    ncols is required when rows is empty (the ambient dimension cannot be
    inferred from nothing); otherwise it must equal the row length.  The
    entries are coerced once, by `rref`.
    """
    if not rows:
        if ncols is None:
            raise ValueError("nullspace of empty matrix needs ncols")
        return [unit_vec(ncols, i) for i in range(ncols)]
    n = len(rows[0])
    red, pivots = rref(rows)
    if ncols is not None and ncols != n:
        raise ValueError(f"rows have {n} columns, not ncols={ncols}")
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return basis


def solve(a: Sequence[Sequence], b: Sequence) -> Vector | None:
    """One exact solution x of a @ x = b, or None if inconsistent.

    The entries of a and b are coerced once, by `rref`.
    """
    if not a:
        return () if is_zero_vec(vec(b)) else None
    n = len(a[0])
    aug = [tuple(row) + (bi,) for row, bi in zip(a, b, strict=True)]
    red, pivots = rref(aug)
    if n in pivots:  # pivot in the constant column: inconsistent
        return None
    x = [ZERO] * n
    for r, p in enumerate(pivots):
        x[p] = red[r][n]
    return tuple(x)


def charpoly(m: Matrix) -> list[Fraction]:
    """Coefficients [c0, c1, ..., c_{n-1}, 1] of det(tI - m), exact.

    Reduce m to upper Hessenberg form h by elementary similarities (for
    each column, swap a nonzero entry below the subdiagonal into place and
    clear the entries under it).  The charpolys p_k of its leading k x k
    blocks then satisfy, by expansion along the last column (1-based),
    p_0 = 1 and p_k = (t - h_kk) p_(k-1)
    - sum over i < k of h_ik * h_(i+1),i * ... * h_k,(k-1) * p_(i-1)
    (Cohen, *A Course in Computational Algebraic Number Theory*, GTM 138,
    algorithms 2.2.9-2.2.10); a zero subdiagonal entry ends the sum early.
    Both stages take O(n^3) field operations.
    """
    n = len(m)
    h = [list(row) for row in m]
    for k in range(1, n - 1):
        piv = next((i for i in range(k, n) if h[i][k - 1] != 0), None)
        if piv is None:
            continue
        if piv != k:
            h[piv], h[k] = h[k], h[piv]
            for row in h:
                row[piv], row[k] = row[k], row[piv]
        inv = ONE / h[k][k - 1]
        for i in range(k + 1, n):
            u = h[i][k - 1] * inv
            if u == 0:
                continue
            # row_i -= u row_k, then col_k += u col_i: a similarity
            h[i] = [x - u * y for x, y in zip(h[i], h[k])]
            for row in h:
                row[k] += u * row[i]
    polys = [[ONE]]
    for k in range(n):
        p = [ZERO] + polys[k]  # t * p_k
        for d, c in enumerate(polys[k]):
            p[d] -= h[k][k] * c
        prod = ONE
        for i in range(k - 1, -1, -1):
            prod *= h[i + 1][i]
            if prod == 0:
                break
            f = prod * h[i][k]
            for d, c in enumerate(polys[i]):
                p[d] -= f * c
        polys.append(p)
    return polys[n]


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_rem(a: list, b: list, inv_lead, mod: int | None = None) -> list:
    """Remainder of a by b (coefficients low to high, b nonzero).

    inv_lead is the inverse of b's leading coefficient; with `mod` the
    arithmetic is over the integers mod that prime, otherwise exact.
    """
    a = list(a)
    db = len(b) - 1
    while len(a) > db:
        q = a[-1] * inv_lead
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] -= q * c
            if mod is not None:
                a[shift + i] %= mod
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_quo(a: list, b: list[Fraction]) -> list[Fraction]:
    """Exact quotient a / b over Q when b divides a."""
    a = list(a)
    inv_lead = ONE / b[-1]
    out = [ZERO] * (len(a) - len(b) + 1)
    for k in range(len(out) - 1, -1, -1):
        q = a[k + len(b) - 1] * inv_lead
        out[k] = q
        for i, c in enumerate(b):
            a[k + i] -= q * c
    return out


def _primitive(coeffs: Sequence) -> list[int]:
    """The positive integer multiple with coprime entries; zero stays zero."""
    ints = _integer_row(coeffs)
    content = math.gcd(*ints)
    return [c // content for c in ints] if content > 1 else ints


def _derivative(a: Sequence) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def _squarefree_mod(g: list[int], p: int) -> bool:
    """Is the monic integer polynomial g square-free modulo the prime p?"""
    a = [c % p for c in g]
    b = [c % p for c in _derivative(g)]
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _poly_rem(a, b, pow(b[-1], -1, p), p)
    return len(a) == 1


def _eval_mod(g: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(g):
        acc = (acc * x + c) % m
    return acc


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of the polynomial, sorted, without multiplicity.

    coeffs are [c0, c1, ..., cd], lowest degree first.  After powers of t
    are stripped, f is replaced by its primitive square-free part
    f / gcd(f, f') (Euclid over Q), with leading coefficient L.  Every
    rational root a/b of f has b | L, so y = L*t maps the roots to the
    integer roots of the monic g(y) = L^(d-1) f(y/L), all of absolute
    value below the Cauchy bound B = 1 + max |g_i|.  For the smallest prime
    p modulo which g stays square-free, the roots of g mod p are found by
    trying every residue and lifted by Newton/Hensel iteration, doubling
    the p-adic precision each step, until p^k > 2B; each lift, read in the
    symmetric range and divided by L, is kept only if it is exactly a
    root (von zur Gathen & Gerhard, *Modern Computer Algebra*, chs. 14-15).

    Cost: polynomial in the degree d and the bit size of the coefficients.
    g is square-free mod p exactly when p does not divide its discriminant,
    whose bit size is polynomial in both, so p and the O(p*d) root search
    are too; the lift takes O(log log B) steps of O(d) big-integer
    products, and the exact checks are at most d evaluations.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    roots = set()
    # strip powers of t
    while coeffs[0] == 0:
        roots.add(ZERO)
        coeffs.pop(0)
    if len(coeffs) == 1:
        return sorted(roots)

    f = _primitive(coeffs)
    a, b = f, _derivative(f)
    while b:
        a, b = b, _poly_rem(a, b, ONE / b[-1])
    if len(a) > 1:
        f = _primitive(_poly_quo(f, a))
    d = len(f) - 1
    lead = f[-1]
    g = [c * lead ** (d - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    bound = 1 + max(abs(c) for c in g)

    p = 2
    while not _squarefree_mod(g, p):
        p += 1
        while any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            p += 1
    dg = _derivative(g)
    for r in range(p):
        if _eval_mod(g, r, p):
            continue
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - _eval_mod(g, r, m) * pow(_eval_mod(dg, r, m), -1, m)) % m
        cand = Fraction(r if 2 * r <= m else r - m, lead)
        if poly_eval(coeffs, cand) == 0:
            roots.add(cand)
    return sorted(roots)


def rational_eigenvalues(m: Matrix) -> list[Fraction]:
    return rational_roots(charpoly(m))
