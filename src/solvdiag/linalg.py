"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row vectors, at the
public boundary.  Nothing here ever rounds.  Every elimination runs on
Python ints in one routine, `echelon`, whose primitive integer echelon rows
are as canonical as the reduced row echelon form: `rref` divides them by
their pivots, `nullspace` and `int_nullspace` read the kernel off them, and
`solve`, `int_solve` and `rank` use them too.  Two subspaces are equal
exactly when their echelon matrices are equal.  Characteristic polynomials
and rational roots are exact as well.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")  # whole string, ASCII only
_QUOTE_CHARS = 40  # of a refused value's repr, quoted in its message


def _quoted(value: object) -> str:
    """repr(value), or its first _QUOTE_CHARS characters and '...' when longer."""
    r = repr(value)
    return r if len(r) <= _QUOTE_CHARS else r[:_QUOTE_CHARS] + "..."


def _ratio(x) -> tuple[int, int]:
    """(p, q) in lowest terms, q > 0, of an int, Fraction or str (read whole by
    `_RATIONAL_RE`): the one reader of a rational.  Another type is a TypeError; a
    string off the format, of more digits than int() reads or with q = 0 a quoted ValueError."""
    if isinstance(x, (int, Fraction)):
        return x.as_integer_ratio()
    if not isinstance(x, str):
        raise TypeError(f"not an exact rational: {x!r}")
    m = _RATIONAL_RE.fullmatch(x)
    if m is None:
        raise ValueError(f"{_quoted(x)} is not an integer or 'p/q'")
    try:
        p, q = int(m[1]), int(m[2] or 1)
    except ValueError:  # more digits than int() reads (sys.get_int_max_str_digits)
        raise ValueError(f"{_quoted(x)} has too many digits") from None
    if q == 0:
        raise ValueError(f"{_quoted(x)} has a zero denominator")
    g = math.gcd(p, q)
    return p // g, q // g


def frac(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction, by `_ratio`."""
    return x if isinstance(x, Fraction) else Fraction(*_ratio(x))


def vec(entries: Iterable) -> Vector:
    return tuple(e if isinstance(e, Fraction) else frac(e) for e in entries)


def divided(ints: Iterable[int], den: int) -> Vector:
    """The exact vector ints / den (den nonzero), with ZERO for each zero entry:
    the one way from integer rows back to Fraction."""
    return tuple(Fraction(x, den) if x else ZERO for x in ints)


def unit_vec(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def scaled_ints(row: Iterable, n: int | None = None) -> tuple[list[int], int]:
    """(s * row as ints, s), s > 0 the lcm of the denominators; a row of ints as it is.

    An entry that is not an int, Fraction or 'p/q' string is a TypeError;
    given n, a row of another length is a ValueError.
    """
    row = list(row)
    if n is not None and len(row) != n:
        raise ValueError(f"vector of length {len(row)} in Q^{n}")
    if all(type(x) is int for x in row):
        return row, 1
    pairs = [_ratio(x) for x in row]
    scale = math.lcm(*[d for _, d in pairs])
    return [a * (scale // d) for a, d in pairs], scale


def primitive_at(row: Sequence[int], pivot: int) -> Sequence[int]:
    """row over its content, signed so that its entry at pivot (nonzero) is
    positive: the form of `echelon`'s rows; row itself when it has that form."""
    g = math.gcd(*row) if row[pivot] > 0 else -math.gcd(*row)
    return row if g == 1 else [x // g for x in row]


def echelon(rows: Sequence[Sequence]) -> tuple[list[Sequence[int]], list[int]]:
    """The primitive integer echelon form of the row space; returns (rows, pivots).

    Each row returned has coprime integer entries and a positive pivot and
    is zero in the other rows' pivot columns: its reduced echelon row times
    the lcm of that row's denominators, so as canonical as the reduced form.
    Zero rows are dropped; a row already in that form may be returned as
    the object given.  Rows of unequal length are a ValueError; an entry
    that is not an int, Fraction or 'p/q' string is a TypeError.

    Fraction-free Gauss-Jordan.  A row of ints is used as it is, any other
    is scaled once to integers by the lcm of its denominators, and no
    nonzero row, or one, returns at once.  To clear column c of row i
    against the pivot p of row r, row i becomes (p/g) row_i - (f/g) row_r,
    with f = row_i[c] and g = gcd(p, f) (no gcd when p = 1, no multiply
    when p/g = 1), and is then divided by its content (the gcd of its
    entries).  These are invertible row operations, so the row space never
    changes.  Every row stays primitive, and a primitive row is fixed up to
    sign by the input and the columns cleared so far, so its entries are
    bounded by minors of the scaled input, as in Bareiss (*Math. Comp.* 22,
    1968).  At the end `primitive_at` makes each row primitive with a
    positive pivot.
    Cost: O(r n min(r, n)) integer multiply-adds and gcds on an r x n
    input, where elimination over Fraction pays a gcd on every multiply
    and subtract; no Fraction is built.
    """
    work = []
    ncols = -1
    for row in rows:
        for x in row:
            if type(x) is not int:
                row = scaled_ints(row)[0]
                break
        if len(row) != ncols:
            if ncols >= 0:
                raise ValueError("rows of unequal length")
            ncols = len(row)
        if any(row):
            work.append(row)
    nrows = len(work)
    pivots: list[int] = []
    if nrows < 2:
        if not work:
            return [], []
        row = work[0]  # the one nonzero row
        c = next(c for c, x in enumerate(row) if x)
        return [primitive_at(row, c)], [c]
    r = 0
    for c in range(ncols):
        for k in range(r, nrows):
            if work[k][c]:
                break
        else:
            continue
        prow = work[k]
        if k != r:
            work[k], work[r] = work[r], prow
        p = prow[c]
        for i in range(nrows):
            row = work[i]
            f = row[c]
            if f and i != r:
                g = 1 if p == 1 else math.gcd(p, f)
                a, b = p // g, f // g
                if a == 1:
                    new = [x - b * y for x, y in zip(row, prow)]
                else:
                    new = [a * x - b * y for x, y in zip(row, prow)]
                content = math.gcd(*new)
                if content > 1:
                    new = [x // content for x in new]
                work[i] = new
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [primitive_at(row, c) for row, c in zip(work, pivots)], pivots


def reduced(rows: Sequence[Sequence[int]], pivots: Sequence[int]) -> Matrix:
    """The reduced row echelon rows over Fraction: each row divided by its pivot."""
    return tuple(divided(row, row[c]) for row, c in zip(rows, pivots))


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with leading 1s; returns (rref, pivot columns).

    `echelon` with each row divided by its pivot.  The reduced form of a row
    space is unique, so equal row spaces give identical outputs, exactly
    those of elimination over Fraction.
    """
    ech, pivots = echelon(rows)
    return reduced(ech, pivots), tuple(pivots)


def rank(rows: Sequence[Sequence]) -> int:
    return len(echelon(rows)[1])


def int_nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[list[int]]:
    """Integer basis of {x : rows @ x = 0}, one vector per free column f.

    Vector f is L times the canonical basis vector of `nullspace` (1 at f,
    0 at the other free columns), where L > 0 is the lcm of the pivots it
    divides by; f is its last nonzero entry, as the canonical vector is zero
    after f.  ncols is required when rows is empty, and must otherwise
    equal the row length.
    """
    if not rows:
        if ncols is None:
            raise ValueError("nullspace of empty matrix needs ncols")
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    n = len(rows[0])
    ech, pivots = echelon(rows)
    if ncols is not None and ncols != n:
        raise ValueError(f"rows have {n} columns, not ncols={ncols}")
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        hits = [(row, p) for row, p in zip(ech, pivots) if row[f]]
        lcm = math.lcm(*(row[p] for row, p in hits))
        v = [0] * n
        v[f] = lcm
        for row, p in hits:
            v[p] = -row[f] * (lcm // row[p])
        basis.append(v)
    return basis


def nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[Vector]:
    """Canonical basis of {x : rows @ x = 0}: `int_nullspace`, each vector
    divided by its entry at its free column (its last nonzero entry)."""
    return [divided(v, next(x for x in reversed(v) if x)) for v in int_nullspace(rows, ncols)]


def solve(a: Sequence[Sequence], b: Sequence) -> Vector | None:
    """One exact solution x of a @ x = b, or None if inconsistent.

    The entries of a and b are coerced once, by `echelon`.
    """
    if not a:
        return () if not any(vec(b)) else None
    n = len(a[0])
    aug = [tuple(row) + (bi,) for row, bi in zip(a, b, strict=True)]
    ech, pivots = echelon(aug)
    if n in pivots:  # pivot in the constant column: inconsistent
        return None
    x = [ZERO] * n
    for row, p in zip(ech, pivots):
        if row[n]:
            x[p] = Fraction(row[n], row[p])
    return tuple(x)


def int_solve(a: Sequence[Sequence], rhs: Sequence[Sequence]) -> tuple[list[list[int]], int] | None:
    """(xs, d) with a @ xs[k] = d * rhs[k], xs integer and d > 0, for a square
    a, or None when a is singular.  One `echelon` of [a | the b as columns]:
    a is nonsingular exactly when the pivots are 0 .. n-1, and then row k is
    p_k (e_k | the k-th entries of the solutions), p_k > 0; d = lcm(p_k)."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("int_solve needs a square matrix")
    ech, pivots = echelon([list(row) + [b[k] for b in rhs] for k, row in enumerate(a)])
    if pivots != list(range(n)):
        return None
    d = math.lcm(*(row[k] for k, row in enumerate(ech)))
    up = [d // row[k] for k, row in enumerate(ech)]
    return [[u * row[n + j] for u, row in zip(up, ech)] for j in range(len(rhs))], d


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
    ints = scaled_ints(coeffs)[0]
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
