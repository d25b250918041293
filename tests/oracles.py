"""Named oracles: the slow definitions the fast paths of afl_lab are checked
against.  src calls none of them, and none may share code with what it
checks beyond the echelon routine rref and its null basis.

Subspaces here are canonical reduced-row-echelon bases, unique per subspace,
so subspace equality is representative equality.  The lattice src hands out
is one basis and its chains, each divisor a union of chain prefixes;
lattice_span turns one of them into such a subspace, to be compared with
the kernel of its divisor and with the same divisor of lattice_by_chains,
the primary-chain route."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from afl_lab import gf
from afl_lab.errors import InputError, InvariantError
from afl_lab.hermitian import induced_subquotient
from afl_lab.linalg import Lattice, Matrix, charpoly, invariant_subspaces, null_basis, rref
from afl_lab.poly import Modulus, Poly, poly_gcd, power_product


@dataclass(frozen=True)
class Subspace:
    """Row span in canonical reduced-row-echelon form (unique per subspace)."""

    ambient: int
    rows: tuple[tuple[gf.FieldElem, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        w = list(v)
        for row in self.rows:
            piv = next(i for i, a in enumerate(row) if not a.is_zero)
            if not w[piv].is_zero:
                f = w[piv]
                w = [a - f * b for a, b in zip(w, row)]
        return all(a.is_zero for a in w)


def span(ambient: int, vectors) -> Subspace:
    rows, _ = rref(list(vectors))
    return Subspace(ambient, rows)


def kernel(m: Matrix) -> Subspace:
    """Null space {v : M v = 0} as a canonical subspace."""
    return span(m.ncols, null_basis(m))


def transform_subspace(sub: Subspace, fn) -> Subspace:
    """Image of a subspace under a linear (or conjugate-linear) vector map."""
    return span(sub.ambient, [fn(r) for r in sub.rows])


def tau_map(s: Matrix):
    """The conjugate-linear vector map x -> S conj(x) of the anti-involution S."""
    return lambda v: s.apply([gf.conj(c) for c in v])


def kernel_of_poly(m: Matrix, f: Poly) -> Subspace:
    """Null space of f(M); for regular M and f | charpoly the dimension is deg f."""
    return kernel(m.eval_poly(f))


def divisor_poly(pairs, exponents) -> Poly:
    """prod P_i^{m_i} over the pairs (P_i, a_i) of a factorization: the
    divisor whose kernel each lattice member must be."""
    p, level = pairs[0][0].p, pairs[0][0].level
    out = Poly.one(p, level)
    for (g, _), m in zip(pairs, exponents):
        for _ in range(m):
            out = out * g
    return out


def complete_basis(base_rows, extension_rows):
    """Extend a basis by the first extension rows that enlarge the span.

    With every vector laid out as a column, a column is a pivot of the
    echelon form exactly when it lies outside the span of the columns before
    it, so the pivots past the base columns pick the same rows as adding
    the extension rows greedily in order."""
    k = len(base_rows)
    vectors = list(base_rows) + list(extension_rows)
    _, pivots = rref(list(zip(*vectors)))
    return [vectors[c] for c in pivots if c >= k]


def lattice_by_chains(m: Matrix, pairs) -> Lattice:
    """The lattice of a regular M from its primary chains, with no cyclic
    vector: step k of the chain of P_i extends the rows of ker P_i(M)^(k-1)
    by the null basis of P_i(M)^k (complete_basis), so ker P_i(M)^k is the
    first k deg P_i rows of the chain; InputError unless each step has
    dimension k deg P_i, which is regularity.  The oracle for
    invariant_subspaces, divisor by divisor."""
    rows, chains = [], []
    for f, a in pairs:
        chains.append((len(rows), f.degree, a))
        base = m.eval_poly(f)
        power, chain = base, []
        for k in range(1, a + 1):
            if k > 1:
                power = power @ base
            ker = null_basis(power)
            if len(ker) != k * f.degree:
                raise InputError("the primary chains of a matrix that is not regular")
            chain += complete_basis(chain, ker) if chain else ker
        rows += chain
    return Lattice(tuple(rows), tuple(chains))


def lattice_by_division(pairs, krylov) -> Lattice:
    """The lattice on the Krylov rows of a cyclic vector with its step rows
    by division: chi = prod P_i^a_i, then step k of the chain of P_i holds
    T^j chi/P_i^k by k exact divisions.  The oracle for the cofactor
    products of invariant_subspaces, row for row on the same Krylov rows."""
    p, level, n = krylov[0][0].p, krylov[0][0].level, len(krylov)
    chi, z = power_product(pairs), gf.zero(p, level)
    steps, chains = [], []
    for f, a in pairs:
        chains.append((len(steps), f.degree, a))
        quo = chi
        for _ in range(a):
            quo = quo // f
            for j in range(f.degree):
                steps.append((z,) * j + quo.coeffs + (z,) * (n - j - len(quo.coeffs)))
    return Lattice((Matrix.from_rows(p, level, steps) @ Matrix.from_rows(p, level, krylov)).rows, tuple(chains))


def member_rows(lattice, vec) -> tuple[int, ...]:
    """The rows of the lattice basis spanning the member of vec: the first
    vec[i] deg P_i rows of every chain i."""
    return tuple(off + r for (off, d, _), k in zip(lattice.chains, vec) for r in range(k * d))


def mask_rows(mask: int) -> tuple[int, ...]:
    """The rows a with bit a of a row mask set, in order."""
    return tuple(a for a in range(mask.bit_length()) if mask >> a & 1)


def lattice_span(lattice, vec) -> Subspace:
    """The member of vec, the rows member_rows(lattice, vec) of the lattice
    basis, as a canonical subspace."""
    return span(len(lattice.rows), [lattice.rows[a] for a in member_rows(lattice, vec)])


def lattice_exponents(lattice) -> list[tuple[int, ...]]:
    """The exponent vector of every member of a lattice (or adapted basis),
    from its chains, in lexicographic order."""
    return list(itertools.product(*(range(a + 1) for _, _, a in lattice.chains)))


def lattice_spans(lattice) -> dict:
    """Every member of the lattice as a canonical subspace, by exponent
    vector in lexicographic order."""
    return {vec: lattice_span(lattice, vec) for vec in lattice_exponents(lattice)}


def all_subspaces(p, level, n):
    """Yield every subspace of F_{p^level}^n once, via canonical RREF bases."""
    z, o = gf.zero(p, level), gf.one(p, level)
    elems = [gf.elem_from_encoding(p, level, k) for k in range(p**level)]
    yield Subspace(n, ())
    for k in range(1, n + 1):
        for pivs in itertools.combinations(range(n), k):
            free_pos = [
                (i, j) for i in range(k) for j in range(n) if j > pivs[i] and j not in pivs
            ]
            for assign in itertools.product(elems, repeat=len(free_pos)):
                rows = [[z] * n for _ in range(k)]
                for i in range(k):
                    rows[i][pivs[i]] = o
                for (i, j), val in zip(free_pos, assign):
                    rows[i][j] = val
                yield Subspace(n, tuple(tuple(r) for r in rows))


def naive_subspace_scan(m: Matrix) -> list[Subspace]:
    """Every M-invariant subspace, by enumerating all subspaces of the ambient.

    Guarded to ambient dimension <= 4 and p <= 3; this is the independent
    oracle for the divisor correspondence, so it must not share code with it.
    """
    if m.n > 4 or m.p > 3:
        raise InputError("naive scan guard: requires dim <= 4 and p <= 3")
    out = []
    for sub in all_subspaces(m.p, m.level, m.n):
        if all(sub.contains(m.apply(r)) for r in sub.rows):
            out.append(sub)
    return out


def divisor_exponents(pairs) -> itertools.product:
    """All exponent vectors (m_1..m_l), 0 <= m_i <= a_i, in lexicographic
    order, for the pairs (P_i, a_i) of a factorization, one at a time."""
    return itertools.product(*(range(a + 1) for _, a in pairs))


def every_divisor(basis):
    """Every divisor of an adapted basis as (vec, W, W-perp), isotropic or
    not, from the full product of its chains' prefix tables: one prefix per
    chain, W the OR of their row masks and W-perp the AND of their column
    masks, with InvariantError unless W-perp has n - dim W rows."""
    n = basis.gram.n
    for picks in itertools.product(*(table.items() for table in basis.prefixes)):
        vec, masks = zip(*picks)
        w, perp = 0, (1 << n) - 1
        for wk, pk in masks:
            w |= wk
            perp &= pk
        if perp.bit_count() != n - w.bit_count():
            raise InvariantError("orthogonal complement is not spanned by adapted basis rows")
        yield vec, w, perp


def stratum_charpoly_by_slice(basis, w: int, perp: int) -> Poly:
    """The oracle of the step products of engine.geometric_count: the
    Hessenberg charpoly of the slice of g in B on the rows of W-perp not in
    W, which the walk formed for every stratum before it took the product
    of the chains' step charpolys."""
    return charpoly(induced_subquotient(basis, w, perp)[1])


def divisors_by_filter(basis) -> list:
    """The isotropic divisors, every_divisor filtered by W inside W-perp: the
    oracle for the pruned walk AdaptedBasis.divisors, triple for triple."""
    return [(vec, w, perp) for vec, w, perp in every_divisor(basis) if not w & ~perp]


def stable_exponents(inst) -> tuple:
    """The g- and tau-stable subspaces as pairs (vec, dim): every divisor
    exponent vector fixed under the star pairing, m_{tau(i)} = m_i."""
    degrees = [f.degree for f, _ in inst.fact.factors]
    return tuple(
        (vec, sum(m * d for m, d in zip(vec, degrees)))
        for vec in divisor_exponents(inst.fact.factors)
        if all(vec[j] == vec[i] for i, j in enumerate(inst.fact.pairing))
    )


def m_counts(members, n: int) -> tuple[int, ...]:
    """The dimension counts |M_i|, i = 0..n, of pairs (vec, dim): the oracle
    for engine.script_w, count for count."""
    counts = [0] * (n + 1)
    for _, d in members:
        counts[d] += 1
    return tuple(counts)


def script_w_direct(inst) -> list[Subspace]:
    """Oracle for engine.script_w: test tau-stability of every invariant subspace."""
    out = []
    for _, sub in sorted(lattice_spans(invariant_subspaces(inst.g, inst.fact.factors)).items()):
        if transform_subspace(sub, tau_map(inst.tau)) == sub:
            out.append(sub)
    return out


def solve_in_rows(rows, target):
    """Coefficients expressing target as a combination of the given rows."""
    if not rows:
        return [] if all(c.is_zero for c in target) else None
    aug = [list(col) for col in zip(*rows)]
    aug = [row + [t] for row, t in zip(aug, target)]
    red, pivots = rref(aug)
    k = len(rows)
    if k in pivots:
        return None  # inconsistent
    coeffs = [None] * k
    for r, pc in enumerate(pivots):
        coeffs[pc] = red[r][k]
    p, level = rows[0][0].p, rows[0][0].level
    return [c if c is not None else gf.zero(p, level) for c in coeffs]


def quotient_by_solves(m: Matrix, w: Subspace, reps) -> Matrix:
    """Action induced by M on span(W + reps)/W, in the coset basis reps: one
    solve per representative.  With W = 0 this is in_basis by definition."""
    if not reps:
        return Matrix(m.p, m.level, ())
    rows = []
    for r in reps:
        coeffs = solve_in_rows(list(w.rows) + list(reps), list(m.apply(r)))
        if coeffs is None:
            raise InputError("representatives do not span an invariant subspace")
        rows.append(coeffs[w.dim :])
    return Matrix.from_rows(m.p, m.level, list(zip(*rows)))


def _entrywise(a: Matrix, b: Matrix, op) -> Matrix:
    if (a.p, a.level, a.n, a.ncols) != (b.p, b.level, b.n, b.ncols):
        raise InputError("entrywise matrix arithmetic needs one shape over one field")
    return Matrix.from_rows(a.p, a.level, [[op(x, y) for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])


def matrix_sum(a: Matrix, b: Matrix) -> Matrix:
    """a + b, for matrices of one shape over one field."""
    return _entrywise(a, b, lambda x, y: x + y)


def matrix_difference(a: Matrix, b: Matrix) -> Matrix:
    """a - b, for matrices of one shape over one field."""
    return _entrywise(a, b, lambda x, y: x - y)


def apply_by_embedding(rows, vec) -> tuple:
    """M v for M over F_{q^2} and v at an even level: every entry of M
    embedded, then one dot product per row.  The oracle for
    gf.embedded_apply."""
    level = vec[0].level
    return tuple(gf.dot([gf.embed(a, level) for a in row], vec) for row in rows)


def coxeter_frame_by_entries(p, n, s_elem):
    """(g, tau, space) of the Coxeter instance of F_{q^{2n}} with the
    norm-one element s_elem, entry by entry: the F_{q^2}-coordinates of z in
    the basis 1, b, ..., b^(n-1) as Python sums over the inverse of its F_p
    coordinate matrix, g and tau from the coordinates of s b^j and
    (b^j)^(q^n), and each of the n^2 Gram entries as descend Tr(b^i (b^j)^(q^n)),
    the trace a sum of q^2-powers taken by squaring, so that no packed map
    of gf enters.  The oracle for the packed maps of
    forge.random_coxeter_instance."""
    level = 2 * n
    b = gf.gen(p, level)
    emb_gen = gf.embed(gf.gen(p, 2), level)
    powers = [b**j for j in range(n)]
    cols = []
    for bj in powers:
        cols += [bj.coeffs, (emb_gen * bj).coeffs]
    aug = [[gf.from_base(p, 1, c) for c in [col[r] for col in cols] + [int(r == j) for j in range(level)]]
           for r in range(level)]
    red, pivots = rref(aug)
    if pivots != tuple(range(level)):
        raise InputError("the power basis does not span the field")
    binv = [[gf.encode_int(a) for a in row[level:]] for row in red]

    def coords(z):
        vec = [sum(binv[i][j] * z.coeffs[j] for j in range(level)) % p for i in range(level)]
        return [gf.elem(p, 2, vec[2 * k : 2 * k + 2]) for k in range(n)]

    tau_images = [bj ** (p**n) for bj in powers]
    g = Matrix.from_rows(p, 2, list(zip(*[coords(s_elem * bj) for bj in powers])))
    tau = Matrix.from_rows(p, 2, list(zip(*[coords(img) for img in tau_images])))
    space = Matrix.from_rows(p, 2, [[gf.descend(trace_by_powers(bi * bj)) for bj in tau_images] for bi in powers])
    return g, tau, space


def trace_by_powers(z):
    """The trace of F_{q^{2n}} down to F_{q^2}, z + z^(q^2) + ... +
    z^(q^(2n-2)), every power taken by squaring."""
    acc = cur = z
    for _ in range(z.level // 2 - 1):
        cur = cur ** (z.p**2)
        acc = acc + cur
    return acc


def inverse_t_powers_by_division(modulus: Poly):
    """Coefficient columns of T^{-j} mod modulus for j = 0..deg-1, each power
    one product by T^{-1} = -h(T)/f0 (modulus = f0 + T h(T)) and one long
    division.  The oracle for the shift of forge._inverse_t_powers."""
    p, level, s = modulus.p, modulus.level, modulus.degree
    inv_t = Poly.from_elems(p, level, modulus.coeffs[1:]).scale(-modulus.coeffs[0].inverse())
    cols, cur = [], Poly.one(p, level)
    for _ in range(s):
        cols.append([cur.coeff(i) for i in range(s)])
        cur = divmod(cur * inv_t, modulus)[1]
    return cols


def is_irreducible_by_gcds(f: Poly) -> bool:
    """Rabin's test: f of degree n > 0 is irreducible iff x^(Q^i) - x and f
    are coprime for i = 1..n/2, Q the size of the field.  The oracle for
    poly.is_irreducible, which reads the distinct-degree split."""
    if f.degree < 1:
        return False
    q_size = f.p**f.level
    x = Poly.x(f.p, f.level)
    h = divmod(x, f)[1]
    for _ in range(f.degree // 2):
        h = h.powmod(q_size, f)
        if poly_gcd(h - x, f).degree > 0:
            return False
    return True


def gcd_by_division(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's remainders, each one long division (divmod).
    The oracle for poly.poly_gcd, which takes packed pseudo-remainders above
    the table cap."""
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a.monic()


def combiner(polys: list[Poly]):
    """The map from scalars c to sum(c_k * polys[k]), zero scalars skipped.

    The polynomials are packed once; each combination is one packed sum of
    scalar-times-polynomial products, each coefficient folded once."""
    p, level = polys[0].p, polys[0].level
    width = gf.slot_width(p, level, len(polys))
    count = max(len(f.coeffs) for f in polys)
    packed = [gf.pack_blocks(p, level, width, f.coeffs) for f in polys]

    def combine(scalars) -> Poly:
        acc = 0
        for c, row in zip(scalars, packed):
            if not c.is_zero:
                acc += gf.pack_blocks(p, level, width, (c,)) * row
        return Poly.from_elems(p, level, gf.fold_blocks(p, level, width, count, acc))

    return combine


def frobenius_powers(g: Poly, ring: Modulus) -> list[Poly]:
    """x^(p^i) mod g for i < level, g monic of degree >= 1 and ring = Modulus(g).

    The p-power map is additive, so x^(p^(i+1)) = sum c_j^p (x^p)^j when
    x^(p^i) = sum c_j x^j: one table of (x^p)^j mod g and no powmod to Q.
    The level-2t oracle for dl._frobenius_table, which builds the table over
    F_{q^2}, where the coefficients of g lie."""
    p, level = g.p, g.level
    x = Poly.x(p, level)
    xp = ring.power(x, p)
    powers = [Poly.one(p, level)]
    for _ in range(1, g.degree):
        powers.append(ring.mul(powers[-1], xp))
    combine = combiner(powers)
    xs = [ring.reduce(x)]
    for _ in range(1, level):
        xs.append(combine([gf.frob_q(c) for c in xs[-1].coeffs]))
    return xs


def frobenius_table_by_division(f: Poly) -> list[tuple[gf.FieldElem, ...]]:
    """The table of dl._frobenius_table, row k holding coefficient k of
    x^(p^i) mod f for i < 2 deg f (f monic of degree >= 2 over F_{q^2}),
    with every (x^p)^j mod f one product and one long division on every
    field.  The oracle for the Modulus(f).mul route dl takes above the
    table cap."""
    p, level, t = f.p, f.level, f.degree
    xp = Poly.x(p, level).powmod(p, f)
    powers = [Poly.one(p, level)]
    for _ in range(1, t):
        powers.append(divmod(powers[-1] * xp, f)[1])
    step = Matrix.from_rows(p, level, [[g.coeff(k) for g in powers] for k in range(t)])
    cur = Poly.x(p, level).coeffs + (gf.zero(p, level),) * (t - 2)
    columns = [cur]
    for _ in range(1, 2 * t):
        cur = step.apply([gf.frob_q(c) for c in cur])
        columns.append(cur)
    return list(zip(*columns))


def chains_per_record(gram: Matrix, vectors) -> list[tuple[gf.FieldElem, ...]]:
    """The isotropy chain h(v_k, tau^i v_k), i = 0..d, of every member v_k
    of the tau-orbit v_0, ..., v_{t-1} of an eigenvector (d = (t-1)/2), each
    from its own dot products with the t vectors G conj(v_j), as tau^i v_k
    = v_{(k+i) mod t}.  The oracle for dl.dl_fixed_points, which forms the
    chain of v_0 alone and lets it decide every record."""
    t = len(vectors)
    # h(x, y) = x . G conj(y), and tau^i v_k = v_{(k+i) mod t}
    gram_conj = [gf.embedded_apply(gram.rows, [gf.frob_q(c) for c in v]) for v in vectors]
    d = (t - 1) // 2
    return [tuple(gf.dot(v, gram_conj[(k + i) % t]) for i in range(d + 1)) for k, v in enumerate(vectors)]


def line_key_by_rref(vector) -> tuple:
    """The projective key of a nonzero vector: the coefficients of the
    reduced echelon form of its one row, by rref.  The oracle for
    dl._line_key, which divides by the first nonzero entry."""
    rows, _ = rref([list(vector)])
    return tuple(c.coeffs for c in rows[0])


def non_residue(p, level):
    """A quadratic non-residue of F_{p^level}, the first by integer
    encoding from p on.  The encodings below p are the F_p elements,
    squares at every even level, so scanning them would only waste one
    exponentiation each."""
    q = p**level
    for k in range(p, q):
        cand = gf.elem_from_encoding(p, level, k)
        if gf.encode_int(cand ** ((q - 1) // 2)) != 1:
            return cand
    raise AssertionError("no quadratic non-residue found")  # unreachable


def field_sqrt(d):
    """A square root of d by Tonelli-Shanks on an even level, with the
    non-residue above; None when d is not a square."""
    p, level = d.p, d.level
    if d.is_zero:
        return d
    q = p**level
    if gf.encode_int(d ** ((q - 1) // 2)) != 1:
        return None
    m = q - 1
    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    c = non_residue(p, level) ** m
    t = d**m
    r = d ** ((m + 1) // 2)
    while gf.encode_int(t) != 1:
        i = 0
        t2 = t
        while gf.encode_int(t2) != 1:
            if i == e:  # t has order 2^i < 2^e unless the arithmetic is broken
                raise AssertionError("Tonelli-Shanks did not converge")
            t2 = t2 * t2
            i += 1
        b = c ** (2 ** (e - i - 1))
        r = r * b
        c = b * b
        t = t * c
        e = i
    return r


def embed_root_by_sqrt(p, level):
    """The root of defining_poly(p, 2) in F_{p^level} with the smallest
    integer encoding, as (-b1 +- s) / 2 with s a square root of the
    discriminant taken in F_{p^level} itself.  The oracle for
    gf._embed_root, which reads s off the trace to F_{q^2}."""
    b0, b1, _ = gf.defining_poly(p, 2)
    disc = gf.from_base(p, level, b1 * b1 - 4 * b0)
    s = field_sqrt(disc)
    if s is None:
        raise InputError("quadratic does not split; target level must be even")
    inv2 = gf.from_base(p, level, 2).inverse()
    nb = gf.from_base(p, level, -b1)
    r1 = (nb + s) * inv2
    r2 = (nb - s) * inv2
    return min(r1, r2, key=gf.encode_int)
