"""Independent reference computations for cross-checking test expectations.

Deliberately written against the definitions, with elimination schemes
other than the library's fraction-free Gauss-Jordan `rref` (Bareiss rank,
and Gauss-Jordan over Fraction), so that agreement between the two is
evidence rather than tautology.
"""

import itertools
from fractions import Fraction
from math import gcd


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _unit(n, i):
    return tuple(Fraction(int(j == i)) for j in range(n))


def transpose(m):
    return tuple(zip(*m))


def matvec(m, v):
    """m @ v over Fraction."""
    return tuple(sum((Fraction(a) * b for a, b in zip(row, v)), Fraction(0)) for row in m)


def lincomb(coeffs, rows):
    """The sum of coeffs[i] * rows[i] over Fraction; rows must be nonempty."""
    out = [Fraction(0)] * len(rows[0])
    for c, row in zip(coeffs, rows):
        for j, x in enumerate(row):
            out[j] += c * x
    return tuple(out)


def _solve(a, b):
    """One solution x of a @ x = b, read off `fraction_rref` of [a | b], or
    None if the system is inconsistent."""
    n = len(a[0])
    red, pivots = fraction_rref([list(row) + [c] for row, c in zip(a, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        x[p] = row[n]
    return tuple(x)


def reduce_vector(s, v):
    """The remainder of v along the Subspace s: v minus each reduced echelon
    row of s times v's entry at that row's pivot, so zero at every pivot."""
    if len(v) != s.ambient_dim:
        raise ValueError(f"a vector of length {len(v)} in Q^{s.ambient_dim}")
    v = [Fraction(x) for x in v]
    for row, p in zip(s.rows, s.pivots):
        c = v[p]
        v = [x - c * y for x, y in zip(v, row)]
    return tuple(v)


def coordinates_of(s, v):
    """The coefficients of v in the reduced echelon basis of the Subspace s,
    its entries at the pivots, or None if v is outside s."""
    if any(reduce_vector(s, v)):
        return None
    return tuple(Fraction(v[p]) for p in s.pivots)


def bareiss_rank(rows) -> int:
    """Rank by fraction-free elimination."""
    m = _frac_rows(rows)
    if not m:
        return 0
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = Fraction(1)
    row = 0
    for col in range(nc):
        piv = None
        for r in range(row, nr):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, nr):
            for c in range(col + 1, nc):
                m[r][c] = (m[row][col] * m[r][c] - m[r][col] * m[row][c]) / prev
            m[r][col] = Fraction(0)
        prev = m[row][col]
        row += 1
        rank += 1
        if row == nr:
            break
    return rank


def fraction_rref(rows):
    """Reduced row echelon form and pivot columns, by Gauss-Jordan over Fraction.

    The library's elimination before it became fraction-free: every multiply
    and subtract is a Fraction operation.
    """
    work = _frac_rows(rows)
    if not work:
        return (), ()
    ncols = len(work[0])
    if any(len(row) != ncols for row in work):
        raise ValueError("rows of unequal length")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = Fraction(1) / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    echelon = tuple(tuple(row) for row in work[:r])
    return echelon, tuple(pivots)


def oracle_nullspace(rows, ncols):
    """A basis of the right kernel, by direct elimination and back-substitution."""
    m = _frac_rows(rows)
    pivots = []
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = m[row][col]
        m[row] = [x / inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def spans_equal(a_rows, b_rows, ncols) -> bool:
    a = [tuple(Fraction(x) for x in r) for r in a_rows]
    b = [tuple(Fraction(x) for x in r) for r in b_rows]
    ra = bareiss_rank(a) if a else 0
    rb = bareiss_rank(b) if b else 0
    if ra != rb:
        return False
    return bareiss_rank(a + b) == ra


def oracle_d_two_form(alg, omega):
    """All values d(omega)(e_i, e_j, e_k), straight from the definition:
    -w([x,y],z) + w([x,z],y) - w([y,z],x)."""
    n = alg.dim
    unit = [tuple(Fraction(1 if a == b else 0) for b in range(n)) for a in range(n)]

    def w(u, v):
        return sum(
            ui * vj * omega.entries[i][j]
            for i, ui in enumerate(u)
            if ui
            for j, vj in enumerate(v)
            if vj
        )

    vals = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                x, y, z = unit[i], unit[j], unit[k]
                vals[(i, j, k)] = (
                    -w(alg.bracket(x, y), z)
                    + w(alg.bracket(x, z), y)
                    - w(alg.bracket(y, z), x)
                )
    return vals


def oracle_is_closed(alg, omega) -> bool:
    return all(v == 0 for v in oracle_d_two_form(alg, omega).values())


def oracle_radical_dim(omega, member_rows, ncols) -> int:
    """dim of the radical of omega restricted to the span of member_rows,
    via the Gram matrix of the restriction."""
    rows = [tuple(Fraction(x) for x in r) for r in member_rows]
    k = len(rows)
    if k == 0:
        return 0
    gram = []
    for a in range(k):
        gram.append(
            tuple(
                sum(
                    rows[a][i] * rows[b][j] * omega.entries[i][j]
                    for i in range(ncols)
                    for j in range(ncols)
                )
                for b in range(k)
            )
        )
    return k - bareiss_rank(gram)


def oracle_radical_rows(omega, member_rows, ncols):
    """An explicit spanning set of the radical of the restriction."""
    rows = [tuple(Fraction(x) for x in r) for r in member_rows]
    k = len(rows)
    if k == 0:
        return []
    gram = [
        [
            sum(
                rows[a][i] * rows[b][j] * omega.entries[i][j]
                for i in range(ncols)
                for j in range(ncols)
            )
            for b in range(k)
        ]
        for a in range(k)
    ]
    out = []
    for coords in oracle_nullspace(gram, k):
        v = [Fraction(0)] * ncols
        for c, r in zip(coords, rows):
            for t in range(ncols):
                v[t] += c * r[t]
        out.append(tuple(v))
    return out


def oracle_curvature_is_zero(alg, table) -> bool:
    """Direct evaluation of D_x D_y z - D_y D_x z - D_[x,y] z on basis triples."""
    n = alg.dim
    unit = [tuple(Fraction(1 if a == b else 0) for b in range(n)) for a in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = table.apply(unit[i], table.apply(unit[j], unit[k]))
                mid = table.apply(unit[j], table.apply(unit[i], unit[k]))
                rhs = table.apply(alg.bracket(unit[i], unit[j]), unit[k])
                if any(a - b - c != 0 for a, b, c in zip(lhs, mid, rhs)):
                    return False
    return True


def trial_division_rational_roots(coeffs):
    """Reference for linalg.rational_roots, not library code.

    The rational root theorem read literally: every root p/q in lowest
    terms has p | c0 and q | cd, so try each signed quotient of divisors
    found by trial division.  Exponential in the bit size of c0 and cd;
    use only on small coefficients.
    """
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return []
    roots = set()
    while coeffs[0] == 0:
        roots.add(Fraction(0))
        coeffs.pop(0)
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in coeffs]

    def divisors(n):
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.update((d, n // d))
            d += 1
        return sorted(out)

    def value(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if value(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def faddeev_leverrier_charpoly(m):
    """Reference for linalg.charpoly, not library code.

    Faddeev-LeVerrier: M_1 = m, c_{n-k} = -tr(M_k)/k and
    M_{k+1} = m (M_k + c_{n-k} I); n matrix products, so O(n^4).
    Coefficients lowest degree first, monic.
    """
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = [[sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs[n - k] = ck
        for i in range(n):
            mk[i][i] += ck
    return coeffs


def oracle_bracket(alg, x, y):
    """[x, y] straight from the structure constants: the e_k coefficient is
    the sum over every i, j of x_i y_j c[i][j][k]."""
    n = alg.dim
    return tuple(
        sum(
            (Fraction(x[i]) * y[j] * alg.table[i][j][k] for i in range(n) for j in range(n)),
            Fraction(0),
        )
        for k in range(n)
    )


def oracle_d_covector(alg, phi):
    """The matrix of d(phi)(e_i, e_j) = -phi([e_i, e_j]), straight from the
    definition, with the bracket from `oracle_bracket`; d(phi) is skew, so
    each pair i < j is bracketed once."""
    n = alg.dim
    unit = [tuple(Fraction(int(a == b)) for b in range(n)) for a in range(n)]
    d = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        d[i][j] = -sum(Fraction(c) * z for c, z in zip(phi, oracle_bracket(alg, unit[i], unit[j])))
        d[j][i] = -d[i][j]
    return d


def oracle_family_provably_empty(alg, w):
    """Whether some (d(phi) ^ phi)(e_i, e_j, e_k) is a nonzero constant on
    the affine family {phi : phi(w) = 1}, written phi_0 + sum x_a psi_a with
    the psi_a from `oracle_nullspace`.  A quadratic in x is constant exactly
    when its values at every e_a, -e_a and e_a + e_b equal its value at 0;
    d is linear, so d(phi) combines the d of phi_0 and of each psi_a."""
    n = alg.dim
    pivot = next(i for i, c in enumerate(w) if c)
    parts = [[Fraction(int(i == pivot)) / w[pivot] for i in range(n)], *oracle_nullspace([w], n)]
    diffs = [oracle_d_covector(alg, p) for p in parts]
    k = len(parts) - 1

    def wedge(x):
        cs = [1, *x]
        phi = [sum(c * p[i] for c, p in zip(cs, parts)) for i in range(n)]
        d = [[sum(c * m[i][j] for c, m in zip(cs, diffs)) for j in range(n)] for i in range(n)]
        return [
            d[i][j] * phi[k] - d[i][k] * phi[j] + d[j][k] * phi[i]
            for i, j, k in itertools.combinations(range(n), 3)
        ]

    points = [[0] * k]
    points += [[s * (b == a) for b in range(k)] for a in range(k) for s in (1, -1)]
    points += [[int(b in ab) for b in range(k)] for ab in itertools.combinations(range(k), 2)]
    values = [wedge(x) for x in points]
    return any(v0 and all(v[t] == v0 for v in values) for t, v0 in enumerate(values[0]))


def oracle_validation(alg):
    """Reference for validate_algebra: (antisymmetry failures, Jacobi failures).

    (i, i) fails when [e_i, e_i] != 0 and (i, j), i < j, when [e_i, e_j] !=
    -[e_j, e_i]; (i, j, k), i < j < k, fails when [[e_i,e_j],e_k] +
    [[e_j,e_k],e_i] + [[e_k,e_i],e_j] != 0, each bracket taken from the
    table as given, so a table that is not antisymmetric is read as is."""
    n = alg.dim
    e = [tuple(Fraction(int(a == b)) for b in range(n)) for a in range(n)]
    anti = []
    for i in range(n):
        if any(oracle_bracket(alg, e[i], e[i])):
            anti.append((i, i))
        for j in range(i + 1, n):
            if any(a + b for a, b in zip(oracle_bracket(alg, e[i], e[j]), oracle_bracket(alg, e[j], e[i]))):
                anti.append((i, j))
    jac = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = [
                    oracle_bracket(alg, oracle_bracket(alg, e[a], e[b]), e[c])
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                ]
                if any(sum(col) for col in zip(*terms)):
                    jac.append((i, j, k))
    return tuple(anti), tuple(jac)


def oracle_derived_rows(alg, rows):
    """Reference for LieAlgebra.derived_span: [a, b] for every ordered pair of
    the rows, a = b included, so no antisymmetry is assumed."""
    return [oracle_bracket(alg, a, b) for a in rows for b in rows]


def oracle_is_solvable(alg):
    """Reference for is_solvable: the derived series by ordered-pair
    brackets (`oracle_derived_rows`) and Bareiss ranks, solvable when it
    reaches zero before it stalls."""
    rows = [_unit(alg.dim, i) for i in range(alg.dim)]
    while rows:
        derived = oracle_derived_rows(alg, rows)
        rank = bareiss_rank(derived)
        if rank == len(rows):
            return False
        rows = fraction_rref(derived)[0] if rank else []
    return True


def oracle_subalgebra_closure(alg, vectors):
    """Reference for subalgebra_closure: from scratch each round, bracket
    every ordered pair of the span's reduced rows (`oracle_bracket`), add
    them, and re-eliminate over Fraction, until the span stops growing."""
    rows = fraction_rref(vectors)[0] if vectors else ()
    while True:
        brackets = [oracle_bracket(alg, a, b) for a in rows for b in rows]
        grown = fraction_rref(list(rows) + brackets)[0] if rows else ()
        if len(grown) == len(rows):
            return rows
        rows = grown


def oracle_ideal_closure(alg, rows):
    """Reference for ideal_closure: from scratch each round, bracket every
    basis vector with every reduced row of the span, until it stops growing."""
    n = alg.dim
    units = [tuple(Fraction(int(a == b)) for b in range(n)) for a in range(n)]
    rows = fraction_rref(rows)[0] if rows else ()
    while True:
        brackets = [oracle_bracket(alg, e, r) for e in units for r in rows]
        grown = fraction_rref(list(rows) + brackets)[0] if rows else ()
        if len(grown) == len(rows):
            return rows
        rows = grown


def rank_test_hyperplane(inside_rows, containing_rows):
    """Reference for algebra._hyperplane_in: the rule it replaced.

    Walk the echelon rows of `inside` in order and keep each one that raises
    the Bareiss rank of the rows kept so far (starting from `containing`),
    until the rank is dim(inside) - 1.  One rank test per candidate row.
    """
    target = len(inside_rows) - 1
    kept = [tuple(r) for r in containing_rows]
    rank = bareiss_rank(kept)
    for row in inside_rows:
        if rank == target:
            break
        if bareiss_rank(kept + [tuple(row)]) > rank:
            kept.append(tuple(row))
            rank += 1
    return kept


def is_common_eigenvector(v, matrices) -> bool:
    """v is nonzero and M v is a multiple of v for every M: rank [v, Mv] <= 1."""
    v = [Fraction(x) for x in v]
    if not any(v):
        return False
    for m in matrices:
        mv = [sum((Fraction(a) * b for a, b in zip(row, v)), Fraction(0)) for row in m]
        if bareiss_rank([v, mv]) > 1:
            return False
    return True


def oracle_connection(alg, omega, pair):
    """Reference for bilagrangian.connection: the per-entry construction it
    replaced, which splits and solves again for every table entry (4n^2 + n
    solves, each by Gauss-Jordan over Fraction).  Input checks are left to
    the caller."""
    from solvdiag.bilagrangian import ConnectionTable

    def vadd(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def d_zero(x, y):
        n = alg.dim
        rhs = tuple(-omega.apply(y, alg.bracket(x, _unit(n, j))) for j in range(n))
        return _solve(transpose(omega.entries), rhs)

    def split_against(v):
        l, r = pair.left, pair.right
        basis = list(l.rows) + list(r.rows)
        coords = _solve(transpose(basis), v)
        # the first l.dim rows of basis span the left member
        vl = lincomb(coords[: l.dim], basis)
        return vl, tuple(Fraction(x) - y for x, y in zip(v, vl))

    n = alg.dim
    splits = [split_against(_unit(n, i)) for i in range(n)]
    entries = []
    for i in range(n):
        xl, xr = splits[i]
        row = []
        for j in range(n):
            yl, yr = splits[j]
            left_part = d_zero(xl, yl)
            bl, _ = split_against(alg.bracket(xr, yl))
            left_part = vadd(left_part, bl)
            right_part = d_zero(xr, yr)
            _, br = split_against(alg.bracket(xl, yr))
            right_part = vadd(right_part, br)
            row.append(vadd(left_part, right_part))
        entries.append(row)
    return ConnectionTable(entries)


def oracle_find_lagrangians(alg, omega, mode="both"):
    """Reference for lagrangian.find_lagrangians: the search as it was when
    it kept, per visited subspace, the least generator index it was
    extended from, and re-extended a subspace reached again from an earlier
    index."""
    from solvdiag.algebra import (
        Subspace,
        derived_subalgebra,
        is_subalgebra,
        subalgebra_closure,
        vector_sort_key,
    )
    from solvdiag.flags import NormalFlagStatus, find_normal_flag
    from solvdiag.forms import NotClosedError, is_closed, radical, restrict
    from solvdiag.lagrangian import (
        SearchCompleteness,
        SearchVerdict,
        vergne_candidate,
        verify_lagrangian,
    )

    if not is_closed(alg, omega):
        raise NotClosedError("the 2-form is not closed")
    n = alg.dim
    found = set()
    normal = find_normal_flag(alg)

    if mode in ("vergne", "both") and normal.status is NormalFlagStatus.FOUND:
        cand = vergne_candidate(alg, omega, normal.flag)
        if cand.verified:
            found.add(cand.subspace)

    ran_adapted = False
    if mode in ("flag_adapted", "both") and normal.status is NormalFlagStatus.FOUND:
        ran_adapted = True
        ker = radical(omega, Subspace.full(n))
        target = omega.rank() // 2 + ker.dim
        gens = []
        for member in normal.flag.members:
            for row in member.rows:
                if row not in gens:
                    gens.append(row)
        gens.sort(key=vector_sort_key)
        # least start index explored per subspace: generators i onward reach
        # everything that generators j >= i reach from the same subspace
        explored = {}

        def extend(cur, start):
            if explored.get(cur, start + 1) <= start:
                return
            explored[cur] = start
            if cur.dim == target:
                cand = verify_lagrangian(alg, omega, cur)
                if cand.verified:
                    found.add(cur)
                return
            for i in range(start, len(gens)):
                v = gens[i]
                if cur.contains_vector(v):
                    continue
                if any(matvec(cur.rows, omega.pairing_with(v))):
                    continue
                grown = subalgebra_closure(alg, list(cur.rows) + [v])
                if grown.dim > target:
                    continue
                if not restrict(omega, grown).is_zero():
                    continue
                extend(grown, i + 1)

        start = ker
        if is_subalgebra(alg, start) and restrict(omega, start).is_zero():
            extend(start, 0)

    exhaustive = ran_adapted and derived_subalgebra(alg).is_zero()
    return SearchVerdict(
        found=tuple(sorted(found, key=lambda s: s.sort_key())),
        completeness=(
            SearchCompleteness.EXHAUSTIVE_WITHIN_MODE
            if exhaustive
            else SearchCompleteness.HEURISTIC
        ),
    )


def oracle_common_eigenvector(alg, rep, space_dim):
    """Reference for algebra.common_eigenvector: the descent as it was on
    Fraction matrices, with a LieAlgebra acting (its `derived_span` gives
    [sub, sub]), weights as Fractions and an action matrix per element of
    the chain built from the element itself."""
    from solvdiag.algebra import (
        SolvdiagError,
        Subspace,
        _shifted,
        vector_sort_key,
    )

    def normalize_vector(v):
        lead = next((x for x in v if x != 0), None)
        return v if lead is None else tuple(y / lead if y else ZERO for y in v)

    ZERO = Fraction(0)
    # the nonzero entries (i, j, x) of each action matrix, read once
    entries = [[(i, j, x) for i, row in enumerate(m) for j, x in enumerate(row) if x] for m in rep]
    acts = {}

    def act(elem):
        """The action of elem, computed once per call."""
        if elem in acts:
            return acts[elem]
        out = [[ZERO] * space_dim for _ in range(space_dim)]
        for c, nz in zip(elem, entries):
            if c:
                for i, j, x in nz:
                    out[i][j] += c * x
        acts[elem] = tuple(tuple(r) for r in out)
        return acts[elem]

    def recurse(sub):
        if not any(x for r in sub.rows for row in act(r) for x in row):
            return _unit(space_dim, 0)
        derived = alg.derived_span(sub)
        if derived.dim >= sub.dim:
            return None  # not solvable
        hyper = Subspace(alg.dim, rank_test_hyperplane(sub.rows, derived.rows))
        w = recurse(hyper)
        if w is None:
            return None
        # the weight of the hyperplane on w
        lam = []
        for r in hyper.rows:
            img = matvec(act(r), w)
            # img must be collinear with w
            coef = None
            for a, b in zip(img, w):
                if b != 0:
                    coef = a / b
                    break
            if coef is None:
                coef = ZERO
            if img != tuple(coef * x for x in w):  # pragma: no cover - theory guard
                raise SolvdiagError("descent produced a non-eigenvector")
            lam.append(coef)
        # common eigenspace of the hyperplane for that weight
        rows = []
        for r, l in zip(hyper.rows, lam):
            rows += _shifted(act(r), l)
        wspace = oracle_nullspace(rows, space_dim)
        if not wspace:  # pragma: no cover - w is in there
            raise SolvdiagError("empty common eigenspace")
        wsub = Subspace(space_dim, wspace)
        # complement direction of the hyperplane inside sub
        z = None
        for r in sub.rows:
            if not hyper.contains_vector(r):
                z = r
                break
        if z is None:  # pragma: no cover
            raise SolvdiagError("no complement direction")
        mz = act(z)
        # invariance of the weight space (char 0); restrict mz to it
        k = wsub.dim
        restr = []
        for r in wsub.rows:
            coords = coordinates_of(wsub, matvec(mz, r))
            if coords is None:  # pragma: no cover - invariance lemma
                raise SolvdiagError("weight space not invariant")
            restr.append(coords)
        restr_m = transpose(restr)  # act on coordinate columns
        best = None
        for mu in trial_division_rational_roots(faddeev_leverrier_charpoly(restr_m)):
            for sol in oracle_nullspace(_shifted(restr_m, mu), k):
                v = normalize_vector(lincomb(sol, wsub.rows))
                if best is None or vector_sort_key(v) < vector_sort_key(best):
                    best = v
        return best

    return recurse(Subspace.full(alg.dim))


def oracle_audit_connection(alg, omega, pair, table):
    """Reference for bilagrangian.audit_connection: the check as it was on
    the dense Fraction views of both tables, with Fraction pairings and
    membership of Fraction combinations."""
    from solvdiag.bilagrangian import ConnectionAudit

    n = alg.dim
    ent = table.entries
    torsion = all(
        tuple(a - b for a, b in zip(ent[i][j], ent[j][i])) == alg.table[i][j]
        for i in range(n)
        for j in range(i + 1, n)
    )
    # omega(D_i e_j, e_k) + omega(e_j, D_i e_k) = 0, with omega(a, b) = -omega(b, a)
    paired = [[omega.pairing_with(v) for v in row] for row in ent]
    parallel = all(
        paired[i][j][k] == paired[i][k][j]
        for i in range(n)
        for j in range(n)
        for k in range(j + 1, n)
    )

    def preserves(member):
        return all(
            member.contains_vector(lincomb(v, ent[i])) for i in range(n) for v in member.rows
        )

    return ConnectionAudit(
        torsion_free=torsion,
        parallel_form=parallel,
        preserves_left=preserves(pair.left),
        preserves_right=preserves(pair.right),
    )


def oracle_subalgebra_as_algebra(alg, s):
    """Reference for algebra.subalgebra_as_algebra: the construction that
    divides each integer bracket back to Fraction and hands the Fraction
    table to the LieAlgebra constructor."""
    from solvdiag.algebra import LieAlgebra, NotSubalgebraError, _ibracket, _sparse, is_subalgebra

    if not is_subalgebra(alg, s):
        raise NotSubalgebraError("subspace is not bracket-closed")
    k = s.dim
    names = tuple(f"b{i}" for i in range(k))
    sup = _sparse(s.int_rows)
    piv = [r[p] for r, p in zip(s.int_rows, s.pivots)]
    # the reduced row i is int row i over its pivot, so [row_i, row_j] is the
    # integer bracket over denom * piv_i * piv_j, read at the pivots
    table = [
        [
            tuple(Fraction(br[p], alg.denom * piv[i] * piv[j]) for p in s.pivots)
            for j, br in enumerate(_ibracket(alg, a, b) for b in sup)
        ]
        for i, a in enumerate(sup)
    ]
    return LieAlgebra(names, table)


def oracle_read_document(text):
    """Reference for the stores parse_document builds, on a text it accepts:
    every value read with Fraction, every bracket, form and vector laid out
    dense, and the dense constructors LieAlgebra(names, table),
    TwoForm(entries) and Subspace(n, rows) left to scale them to integers.
    Returns (algebra, {form: TwoForm}, {flag: [Subspace]}, {name: Subspace})."""
    import json

    from solvdiag import LieAlgebra, Subspace, TwoForm

    raw = json.loads(text)
    names = raw["basis"]
    n = len(names)
    idx = {nm: i for i, nm in enumerate(names)}

    def vector(coeffs):
        v = [Fraction(0)] * n
        for k, c in coeffs.items():
            v[idx[k]] = Fraction(c)
        return v

    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for x, y, coeffs in raw["brackets"]:
        table[idx[x]][idx[y]] = vector(coeffs)
        table[idx[y]][idx[x]] = [-c for c in vector(coeffs)]
    forms = {}
    for fname, items in raw.get("two_forms", {}).items():
        m = [[Fraction(0)] * n for _ in range(n)]
        for x, y, c in items:
            m[idx[x]][idx[y]], m[idx[y]][idx[x]] = Fraction(c), -Fraction(c)
        forms[fname] = TwoForm(m)
    flags = {
        g: [Subspace(n, [vector(v) for v in member]) for member in chain]
        for g, chain in raw.get("flags", {}).items()
    }
    subspaces = {
        s: Subspace(n, [vector(v) for v in vs]) for s, vs in raw.get("subspaces", {}).items()
    }
    return LieAlgebra(names, table), forms, flags, subspaces


def oracle_validate_flag(alg, members):
    """Reference for validate_flag, column by column from the definitions:
    each member given as rows spanning it, ranks by Bareiss and brackets
    summed over the Fraction table, with no column read off another.
    Returns (dims, dims_consecutive, ends_at_full, nesting, subalgebra,
    ideal_in_next, normal_in_algebra)."""
    n = alg.dim
    units = [_unit(n, i) for i in range(n)]

    def bracket(x, y):
        out = [Fraction(0)] * n
        for i, j in itertools.product(range(n), repeat=2):
            if x[i] and y[j]:
                for k, c in enumerate(alg.table[i][j]):
                    out[k] += x[i] * y[j] * c
        return out

    def within(a, b, rank):  # every vector of a in the span of b, of rank `rank`
        return all(bareiss_rank(list(b) + [v]) == rank for v in a)

    def stable(s, t, rank):  # [t, s] in s
        return within([bracket(x, y) for x in t for y in s], s, rank)

    dims = tuple(bareiss_rank(m) for m in members)
    nesting = tuple(within(a, b, r) for a, b, r in zip(members, members[1:], dims[1:]))
    return (
        dims,
        all(b == a + 1 for a, b in zip(dims, dims[1:])),
        dims[-1] == n and within(units, members[-1], n),
        nesting,
        tuple(stable(s, s, r) for s, r in zip(members, dims)),
        tuple(
            nest and stable(s, t, r)
            for nest, s, t, r in zip(nesting, members, members[1:], dims)
        ),
        tuple(stable(s, units, r) for s, r in zip(members, dims)),
    )
