"""Construction and serialization of certified minuscule instances.

An instance is a tuple (V, h, g, tau): a nondegenerate hermitian space over
F_{q^2}, a regular unitary endomorphism g, and an anti-involution tau that
inverts g.  Two builders exist.

build_block_instance realizes a factorization signature directly: g is block
diagonal with one companion block per self-paired factor P^a and a pair of
companion blocks per conjugate pair {P^a, star(P)^a}.  tau is defined first,
blockwise, as Q(T) e -> conj(Q)(T^{-1}) e (swapping the two blocks of a
pair); the Gram matrix is then *solved for*.  Unitarity of g is F_p-linear
in G and makes ker P(g)^a orthogonal to ker Q(g)^b unless Q = star(P), so
G vanishes off the pairing blocks (each sp block with itself, the two
blocks of a cp pair with each other) and is Toeplitz on each of them.  The
unknowns are one value per diagonal of each pairing block, conjugate
symmetry built in, and the anti-isometry law of tau follows (_solve_gram).
linalg.rref solves the system over F_p, and seeded samples of the solution
space are drawn one at a time until one has full rank, from the basis the
same elimination gives on all n^2 F_p coordinates of G.  Defining tau
first and solving for h avoids the case analysis the opposite order would
need.

random_coxeter_instance uses the field model instead: V = F_{q^{2n}} with
basis 1, b, ..., b^{n-1}, the trace form h(x, y) = Tr(x y^{q^n}), g given by
multiplication with a norm-one element s of F_{q^{2n}}, and tau = the q^n
power map.  When s generates the field, the characteristic polynomial is
irreducible and self-paired.

The signature mini-language is "sp:<deg>:<exp>" / "cp:<deg>:<exp>", joined
by commas; "coxeter:<n>" routes to the second builder.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from . import gf
from .errors import CrossCheckError, ForgeError, InputError, InvariantError
from .gf import FieldElem
from .hermitian import (
    AntiInvolution,
    HermitianSpace,
    is_unitary,
    validate_anti_involution,
    validate_space,
)
from .linalg import Matrix, charpoly, is_regular, null_basis, rref
from .poly import FactoredPoly, Poly, factor, poly_key, star

GRAM_TRIES = 64
GENERATOR_TRIES = 64
N_MAX = 81  # dimension bound; README gives the timed runs behind it


@dataclass(frozen=True)
class BlockSpec:
    kind: str  # "sp" (self-paired) or "cp" (conjugate pair)
    degree: int
    exponent: int
    poly: Poly | None = None  # explicit irreducible; None requests a random one

    @property
    def dim(self) -> int:
        d = self.degree * self.exponent
        return d if self.kind == "sp" else 2 * d

    def spec_string(self) -> str:
        return f"{self.kind}:{self.degree}:{self.exponent}"


def parse_signature(text: str) -> tuple[BlockSpec, ...]:
    blocks = []
    for part in text.split(","):
        fields = part.strip().split(":")
        if len(fields) != 3 or fields[0] not in ("sp", "cp"):
            raise InputError(f"bad signature block {part!r}; expected sp:<deg>:<exp> or cp:<deg>:<exp>")
        try:
            deg, exp = int(fields[1]), int(fields[2])
        except ValueError as exc:
            raise InputError(f"bad signature block {part!r}") from exc
        if deg < 1 or exp < 1:
            raise InputError("signature degrees and exponents must be positive")
        if fields[0] == "sp" and deg % 2 == 0:
            raise InputError("self-paired irreducibles have odd degree")
        blocks.append(BlockSpec(fields[0], deg, exp))
    require_dim(signature_dim(blocks), "signature dimension")
    return tuple(blocks)


def signature_dim(sig) -> int:
    return sum(b.dim for b in sig)


def require_dim(n: int, what: str) -> None:
    if n > N_MAX:
        raise InputError(f"{what} must be at most {N_MAX}, got {n}")


def parse_spec(spec: str) -> int | tuple[BlockSpec, ...]:
    """'coxeter:<n>' parses to the dimension n, anything else to a block
    signature; malformed specs raise InputError."""
    spec = spec.strip()
    if spec.startswith("coxeter:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad coxeter spec {spec!r}") from exc
        require_dim(n, "coxeter dimension")
        return n
    return parse_signature(spec)


@dataclass(frozen=True)
class MinusculeInstance:
    p: int
    space: HermitianSpace
    g: Matrix
    tau: AntiInvolution
    fact: FactoredPoly
    seed: int
    signature: tuple[str, ...]
    provenance: str

    @property
    def n(self) -> int:
        return self.space.dim


# ---------------------------------------------------------------------------
# random irreducibles via minimal polynomials of tower elements


def _tau_orbit(z: FieldElem) -> list[FieldElem]:
    """z, tau z, tau^2 z, ... up to the first return to z.  tau has order
    d on F_{q^{2d}} (level 2d), so an orbit still open after d steps means
    broken arithmetic."""
    d = z.level // 2
    orbit = [z]
    cur = gf.tau_frob(z)
    while cur != z:
        if len(orbit) == d:
            raise CrossCheckError(f"tau orbit of a level-{z.level} element is not closed after {d} steps")
        orbit.append(cur)
        cur = gf.tau_frob(cur)
    return orbit


def _min_poly_over_quadratic(z: FieldElem) -> Poly | None:
    """Minimal polynomial of a level-2d element over F_{q^2}, or None if its
    Galois orbit is shorter than d (z lies in a proper subfield)."""
    orbit = _tau_orbit(z)
    if len(orbit) != z.level // 2:
        return None
    prod = Poly.one(z.p, z.level)
    for r in orbit:
        prod = prod * Poly.x_minus(r)
    coeffs = [gf.descend(c) for c in prod.coeffs]
    return Poly.from_elems(z.p, 2, coeffs)


def _random_elem(p, level, rng) -> FieldElem:
    return gf.elem(p, level, [rng.randrange(p) for _ in range(level)])


def _random_self_paired_irreducible(p: int, degree: int, rng) -> Poly:
    """Sample a norm-one element of F_{q^{2d}} and take its minimal polynomial;
    guaranteed self-paired, retried (GENERATOR_TRIES tries) until the degree is d."""
    level = 2 * degree
    for _ in range(GENERATOR_TRIES):
        y = _random_elem(p, level, rng)
        if y.is_zero:
            continue
        z = y ** (p**degree - 1)
        cand = _min_poly_over_quadratic(z)
        if cand is not None and cand.degree == degree:
            return cand
    raise ForgeError(f"could not sample a self-paired irreducible of degree {degree} over F_{p * p} (q = {p})")


def _random_pair_irreducible(p: int, degree: int, rng) -> Poly:
    level = 2 * degree
    for _ in range(GENERATOR_TRIES):
        z = _random_elem(p, level, rng)
        if z.is_zero:
            continue
        cand = _min_poly_over_quadratic(z)
        if cand is not None and cand.degree == degree and star(cand) != cand:
            return cand
    raise ForgeError(f"could not sample a non-self-paired irreducible of degree {degree} over F_{p * p} (q = {p})")


def _mobius(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def irreducible_supply(p: int, kind: str, degree: int) -> int:
    """How many blocks of this kind and degree F_{q^2} can realize at once.

    With N(d) monic irreducibles of degree d over F_{q^2} and SP(d) of them
    self-paired, SP(d) = (1/d) sum_{e|d} mu(d/e) (q^e + 1) for odd d (and 0
    for even d); "sp" blocks draw on those, "cp" blocks on the
    (N(d) - [d = 1] - SP(d)) / 2 conjugate pairs, T itself having no star."""
    divisors = [e for e in range(1, degree + 1) if degree % e == 0]
    self_paired = 0
    if degree % 2:
        self_paired = sum(_mobius(degree // e) * (p**e + 1) for e in divisors) // degree
    if kind == "sp":
        return self_paired
    total = sum(_mobius(degree // e) * p ** (2 * e) for e in divisors) // degree
    return (total - (degree == 1) - self_paired) // 2


def _check_realizable(sig, p) -> None:
    for (kind, degree), need in sorted(Counter((b.kind, b.degree) for b in sig).items()):
        have = irreducible_supply(p, kind, degree)
        if need > have:
            what = "self-paired irreducibles" if kind == "sp" else "conjugate pairs of irreducibles"
            raise InputError(
                f"signature is not realizable over q = {p}: it needs {need} {kind} blocks of "
                f"degree {degree}, but F_{p * p} has only {have} {what} of degree {degree}"
            )


def _resolve_polys(sig, p, rng) -> list[Poly]:
    seen: set[tuple] = set()
    out = []
    for block in sig:
        if block.poly is not None:
            cand = block.poly
            if cand.p != p or cand.level != 2:
                raise InputError("explicit block polynomial lives over the wrong field")
            if not cand.is_monic or cand.degree != block.degree:
                raise InputError("explicit block polynomial does not match its spec")
            if cand.coeffs[0].is_zero:
                raise InputError("block polynomial has zero constant term")
            if block.kind == "sp" and star(cand) != cand:
                raise InputError("sp block polynomial is not self-paired")
            if block.kind == "cp" and star(cand) == cand:
                raise InputError("cp block polynomial is self-paired")
        else:
            for _ in range(GENERATOR_TRIES):
                if block.kind == "sp":
                    cand = _random_self_paired_irreducible(p, block.degree, rng)
                else:
                    cand = _random_pair_irreducible(p, block.degree, rng)
                keys = {poly_key(cand), poly_key(star(cand))}
                if not keys & seen:
                    break
            else:
                raise ForgeError("could not sample a fresh block polynomial")
        keys = {poly_key(cand), poly_key(star(cand))}
        if keys & seen:
            raise InputError("signature blocks must carry distinct irreducibles")
        seen |= keys
        out.append(cand)
    return out


# ---------------------------------------------------------------------------
# tau on companion blocks


def _poly_power(f: Poly, a: int) -> Poly:
    out = Poly.one(f.p, f.level)
    for _ in range(a):
        out = out * f
    return out


def _inverse_t_powers(modulus: Poly):
    """Coefficient columns of T^{-j} mod modulus for j = 0..deg-1.

    Writing modulus = f0 + T h(T), the inverse of T is -h(T)/f0, already
    reduced since deg h < deg modulus."""
    p, level = modulus.p, modulus.level
    s = modulus.degree
    f0 = modulus.coeffs[0]
    if f0.is_zero:
        raise InputError("T is not invertible modulo the block polynomial")
    inv_t = Poly.from_elems(p, level, modulus.coeffs[1:]).scale(-f0.inverse())
    cols = []
    cur = Poly.one(p, level)
    for _ in range(s):
        cols.append([cur.coeff(i) for i in range(s)])
        cur = (cur * inv_t) % modulus
    return cols


def _assemble_blocks(specs, polys):
    """Block-diagonal g, the tau matrix and the pairing layout for the whole
    signature.

    tau_cols collects, in global column order, the block offset each image
    lands in together with its coefficient column.  The layout lists the
    block pairs (off_a, size_a, off_b, size_b) on which a compatible Gram
    matrix can be nonzero: each sp block with itself and the two blocks of
    each cp pair with each other."""
    p = polys[0].p
    g_blocks = []
    tau_cols = []
    pairs = []
    off = 0
    for block, fp in zip(specs, polys):
        if block.kind == "sp":
            mod = _poly_power(fp, block.exponent)
            g_blocks.append(Matrix.companion(mod))
            tau_cols.extend((off, col) for col in _inverse_t_powers(mod))
            pairs.append((off, mod.degree, off, mod.degree))
            off += mod.degree
        else:
            mod_a = _poly_power(fp, block.exponent)
            mod_b = _poly_power(star(fp), block.exponent)
            g_blocks.append(Matrix.companion(mod_a))
            g_blocks.append(Matrix.companion(mod_b))
            s = mod_a.degree
            off_a, off_b = off, off + s
            # the two blocks swap, each with the T -> T^{-1} twist
            tau_cols.extend((off_b, col) for col in _inverse_t_powers(mod_b))
            tau_cols.extend((off_a, col) for col in _inverse_t_powers(mod_a))
            pairs.append((off_a, s, off_b, s))
            off += 2 * s
    n = off
    g = Matrix.block_diag(g_blocks)
    z = gf.zero(p, 2)
    s_rows = [[z] * n for _ in range(n)]
    for col_index, (dst_off, col) in enumerate(tau_cols):
        for i, c in enumerate(col):
            s_rows[dst_off + i][col_index] = c
    return g, Matrix.from_rows(p, 2, s_rows), pairs


# ---------------------------------------------------------------------------
# solving for the Gram matrix


def _fp_rows(p, rows):
    """Rows of residues in [0, p) as rows of elements of F_p itself, one
    element built per distinct residue: an elimination over F_p runs on the
    prime field's arithmetic, tabled for every p <= TABLE_CAP, whatever q^2."""
    elems = {c: gf.from_base(p, 1, c) for c in set().union(*rows)}
    return [[elems[c] for c in r] for r in rows]


def _slot(i, j, n):
    """Position of entry (i, j), i <= j, among the n^2 F_p coordinates of a
    conjugate-symmetric n x n matrix: the n diagonal entries first, then two
    per strict upper entry in row-major order.  Only the order matters: it
    fixes which basis of the solution space the seeded candidates come from."""
    return i if i == j else n + 2 * (i * n - i * (i + 1) // 2 + j - i - 1)


def _toeplitz_unknowns(pairs, p, n):
    """The F_p unknowns of a Gram matrix that is Toeplitz on each pairing
    block and zero elsewhere, as unit Gram matrices E (lists of (i, j, e)).

    On a pair (A, B) unitarity gives G[i+1][j+1] = G[i][j], since
    g e_i = e_{i+1} inside a companion block, so G there is one value t_d
    per diagonal d = j - i.  An sp block has t_0 in F_p and
    t_{-d} = conj(t_d); a cp pair has t_d in F_{q^2} for
    -(size_a - 1) <= d <= size_b - 1.  Every Gram matrix for which g is
    unitary lies in their span.  The unknowns are sorted by the last slot
    their diagonal covers."""
    one, w = gf.one(p, 2), gf.elem(p, 2, [0, 1])
    keyed = []
    for off_a, size_a, off_b, size_b in pairs:
        for d in range(0 if off_a == off_b else 1 - size_a, size_b):
            cells = [(off_a + a, off_b + a + d) for a in range(size_a) if 0 <= a + d < size_b]
            last = _slot(*cells[-1], n)
            if off_a == off_b and d == 0:
                keyed.append((last, [(i, i, one) for i, _ in cells]))
                continue
            for comp, e in enumerate((one, w)):
                ebar = gf.conj(e)
                keyed.append((last + comp, [x for i, j in cells for x in ((i, j, e), (j, i, ebar))]))
    keyed.sort(key=lambda item: item[0])
    return [entries for _, entries in keyed]


def _unpack_gram(values, unknowns, p, n) -> Matrix:
    z = gf.zero(p, 2)
    rows = [[z] * n for _ in range(n)]
    for val, entries in zip(values, unknowns):
        if val:
            c = gf.from_base(p, 2, val)
            for i, j, e in entries:
                rows[i][j] = rows[i][j] + c * e
    return Matrix.from_rows(p, 2, rows)


def _gram_columns(g: Matrix, unknowns) -> list[dict]:
    """One column per unknown: the nonzero entries of g^T E conj(g) - E for
    the unknown's unit Gram matrix E, keyed (row, column).

    (g^T E conj(g))[a][b] = sum e g[i][a] conj(g)[j][b] over the entries e of
    E at (i, j) runs only over the nonzero entries of row i of g and row j
    of conj(g)."""
    z = gf.zero(g.p, 2)

    def nonzero(mat):
        return [[(c, a) for c, a in enumerate(row) if not a.is_zero] for row in mat.rows]

    g_rows, gbar_rows = nonzero(g), nonzero(g.conj())
    columns = []
    for entries in unknowns:
        col = {}
        for i, j, c in entries:
            col[i, j] = col.get((i, j), z) - c
            for ca, x in g_rows[i]:
                xc = x * c
                for cb, y in gbar_rows[j]:
                    col[ca, cb] = col.get((ca, cb), z) + xc * y
        columns.append({key: v for key, v in col.items() if not v.is_zero})
    return columns


def _gram_basis(g: Matrix, pairs):
    """The Toeplitz unknowns and the free-column basis of their solution
    space, as residue lists.

    The system has one F_p row per distinct nonzero component of an entry
    of g^T G conj(g) - G; g is block diagonal, so these entries lie at
    pairing positions only.  null_basis gives, for each free column u, the
    solution with 1 at u and 0 at the other free columns, supported on
    columns <= u.  As the unknowns are sorted by the last slot of their
    diagonal, that is, on all n^2 slots, the solution whose last nonzero
    slot is u's: the basis the same elimination gives on all n^2 slots,
    vector for vector and in the same order."""
    p, n = g.p, g.n
    unknowns = _toeplitz_unknowns(pairs, p, n)
    columns = _gram_columns(g, unknowns)
    rows = {}  # a row that repeats says nothing new
    for key in dict.fromkeys(key for col in columns for key in col):
        for comp in (0, 1):
            row = tuple(col[key].coeffs[comp] if key in col else 0 for col in columns)
            if any(row):
                rows[row] = None
    # sp:1:1 leaves no nonzero equation: every unknown is free
    system = Matrix.from_rows(p, 1, _fp_rows(p, list(rows) or [[0] * len(unknowns)]))
    return unknowns, [[gf.encode_int(a) for a in v] for v in null_basis(system)]


def _gram_candidates(basis, p, seed, label):
    """The basis vectors, then seeded random combinations of them, GRAM_TRIES
    in all, each drawn only when asked for."""
    rng = random.Random(f"gram:{p}:{label}:{seed}")
    yield from basis[:GRAM_TRIES]
    for _ in range(GRAM_TRIES - len(basis)):
        combo = [0] * len(basis[0])
        for vec in basis:
            c = rng.randrange(p)
            if c:
                combo = [(a + c * b) % p for a, b in zip(combo, vec)]
        yield combo


def _solve_gram(g: Matrix, pairs, seed, label) -> HermitianSpace:
    """Sample a nondegenerate Gram matrix for which g is unitary and tau an
    anti-isometry.

    The solve runs on the pairing blocks of the layout, in Toeplitz unknowns
    with conjugate symmetry built in (_toeplitz_unknowns), and imposes
    unitarity only.  The anti-isometry law follows from it: tau sends the
    i-th basis vector e_i of a block to g^{-i} e'_0, e'_0 the first basis
    vector of the paired block, so for e_i and f_j unitarity gives
    h(tau e_i, tau f_j) = h(g^{j-i} e'_0, f'_0) if j >= i and
    h(e'_0, g^{i-j} f'_0) otherwise, which on a Gram matrix Toeplitz on the
    pairs is conj(h(e_i, f_j)).  certify_instance checks it all the same.
    Candidates are the free-column basis vectors, then seeded combinations,
    and the first of full rank (by rref) is kept."""
    p, n = g.p, g.n
    where = f"{label} at q = {p}, seed {seed}"
    unknowns, basis = _gram_basis(g, pairs)
    if not basis:
        raise ForgeError(f"no compatible Gram matrix exists for {where} (solution space is trivial)")
    for values in _gram_candidates(basis, p, seed, label):
        gm = _unpack_gram(values, unknowns, p, n)
        if len(rref(gm.rows)[1]) == n:
            return HermitianSpace(gm)  # certified with the rest of the instance
    raise ForgeError(
        f"no nondegenerate Gram matrix found for {where} within {GRAM_TRIES} tries "
        f"(solution space dimension {len(basis)} over F_{p})"
    )


# ---------------------------------------------------------------------------
# builders


def certify_instance(space: HermitianSpace, g: Matrix, tau: AntiInvolution, seed: int) -> FactoredPoly:
    """Check every instance axiom and return the factorization of charpoly(g).

    Raises InvariantError naming the first broken axiom.  Regularity is
    decided exactly on that factorization, with one echelon form per
    repeated factor: a factor of multiplicity one cannot break it, so a
    squarefree characteristic polynomial costs none.  Every builder stores the
    factorization returned here, so serialized certificates are never
    trusted and the invariant has a single source."""
    validate_space(space.gram)
    if not is_unitary(g, space):
        raise InvariantError("g is not unitary for the hermitian form")
    fact = factor(charpoly(g), seed)
    if not is_regular(g, fact):
        raise InvariantError("g is not regular")
    validate_anti_involution(tau, space, g)
    return fact


def build_block_instance(sig, p: int, seed: int) -> MinusculeInstance:
    """Certified instance realizing a factorization signature exactly."""
    gf.require_odd_prime(p, "q")
    if not sig:
        raise InputError("empty signature")
    for block in sig:
        if block.kind not in ("sp", "cp"):
            raise InputError(f"unknown block kind {block.kind!r}")
        if block.degree < 1 or block.exponent < 1:
            raise InputError("signature degrees and exponents must be positive")
        if block.kind == "sp" and block.degree % 2 == 0:
            raise InputError("self-paired irreducibles have odd degree")
    _check_realizable(sig, p)
    sig_string = ",".join(b.spec_string() for b in sig)
    rng = random.Random(f"forge:{p}:{sig_string}:{seed}")
    polys = _resolve_polys(sig, p, rng)
    g, s, pairs = _assemble_blocks(sig, polys)
    space = _solve_gram(g, pairs, seed, sig_string)
    tau = AntiInvolution(s)
    fact = certify_instance(space, g, tau, seed)
    expected = sorted(
        [(b.degree, b.exponent) for b in sig]
        + [(b.degree, b.exponent) for b in sig if b.kind == "cp"]
    )
    got = sorted((f.degree, a) for f, a in fact.factors)
    if expected != got:
        raise AssertionError("factorization does not match the requested signature")
    return MinusculeInstance(
        p=p,
        space=space,
        g=g,
        tau=tau,
        fact=fact,
        seed=seed,
        signature=tuple(b.spec_string() for b in sig),
        provenance="block",
    )


def random_coxeter_instance(p: int, n: int, seed: int) -> MinusculeInstance:
    """Certified instance from the norm-one torus of F_{q^{2n}} (n odd).

    When GENERATOR_TRIES samples give no s generating F_{q^{2n}} over
    F_{q^2}, ForgeError names the degree of the last witness.
    """
    gf.require_odd_prime(p, "q")
    if n < 1 or n % 2 == 0:
        raise InputError("the torus model needs odd n >= 1")
    level = 2 * n
    b = gf.gen(p, level)
    emb_gen = gf.embed(gf.gen(p, 2), level)

    # F_p coordinate matrix of the F_{q^2}-basis 1, b, ..., b^{n-1}
    cols = []
    powers = [gf.one(p, level)]
    for _ in range(1, n):
        powers.append(powers[-1] * b)
    for bj in powers:
        cols.append(list(bj.coeffs))
        cols.append(list((emb_gen * bj).coeffs))
    aug = [[cols[c][r] for c in range(level)] + [int(r == j) for j in range(level)] for r in range(level)]
    red, pivots = rref(_fp_rows(p, aug))
    if pivots != tuple(range(level)):
        raise AssertionError("power basis failed to span the field")
    binv = [[gf.encode_int(a) for a in row[level:]] for row in red]

    def coords(z: FieldElem):
        vec = [sum(binv[i][j] * z.coeffs[j] for j in range(level)) % p for i in range(level)]
        return tuple(gf.elem(p, 2, [vec[2 * k], vec[2 * k + 1]]) for k in range(n))

    rng = random.Random(f"coxeter:{p}:{n}:{seed}")
    norm_exp = p**n - 1
    attempts = GENERATOR_TRIES
    witness = None
    while attempts:
        attempts -= 1
        y = _random_elem(p, level, rng)
        if y.is_zero:
            continue
        s_elem = y**norm_exp
        minp = _min_poly_over_quadratic(s_elem)
        if minp is None or minp.degree != n:
            witness = s_elem
            continue
        g = Matrix.from_rows(p, 2, _transpose_rows([coords(s_elem * bj) for bj in powers]))
        bq = b ** (p**n)
        tau_images = [gf.one(p, level)]
        for _ in range(1, n):
            tau_images.append(tau_images[-1] * bq)
        s_mat = Matrix.from_rows(p, 2, _transpose_rows([coords(img) for img in tau_images]))
        # h(b^i, b^j) = Tr(b^i (b^j)^(q^n)), and (b^j)^(q^n) is tau_images[j]
        gram_rows = [[gf.descend(gf.quadratic_trace(ba * bq_j)) for bq_j in tau_images] for ba in powers]
        space = HermitianSpace(Matrix.from_rows(p, 2, gram_rows))
        tau = AntiInvolution(s_mat)
        return MinusculeInstance(
            p=p,
            space=space,
            g=g,
            tau=tau,
            fact=certify_instance(space, g, tau, seed),
            seed=seed,
            signature=(f"coxeter:{n}",),
            provenance="coxeter",
        )
    raise ForgeError(
        "exhausted attempts to find a generating norm-one element; "
        f"last witness has minimal polynomial of degree {_witness_degree(witness)} < {n}"
    )


def _witness_degree(z):
    return 0 if z is None else len(_tau_orbit(z))


def _transpose_rows(cols):
    return [list(r) for r in zip(*cols)]


def instance_from_spec(spec: str, p: int, seed: int) -> MinusculeInstance:
    """Dispatch 'coxeter:<n>' or a comma-joined block signature."""
    parsed = parse_spec(spec)
    if isinstance(parsed, int):
        return random_coxeter_instance(p, parsed, seed)
    return build_block_instance(parsed, p, seed)


# ---------------------------------------------------------------------------
# JSON round trip


def serialize_instance(inst: MinusculeInstance) -> dict:
    return {
        "p": inst.p,
        "n": inst.n,
        "field": {"poly2": list(gf.defining_poly(inst.p, 2))},
        "gram": inst.space.gram.to_json(),
        "g": inst.g.to_json(),
        "tau": inst.tau.mat.to_json(),
        "seed": inst.seed,
        "signature": list(inst.signature),
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _matrix_from_json(p, data, n, name) -> Matrix:
    """Every entry is validated, and one element built per distinct pair.

    The validation must come first: 1.0 and True equal the key 1."""
    if not isinstance(data, list) or len(data) != n:
        raise InputError(f"schema: {name} must be a {n}x{n} matrix")
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"schema: {name} must be a {n}x{n} matrix")
        for entry in row:
            if not isinstance(entry, list) or len(entry) != 2:
                raise InputError(f"schema: {name} entries must be coefficient pairs")
            if not all(_is_int(c) and 0 <= c < p for c in entry):
                raise InputError(f"schema: {name} coefficients must be integers in [0, {p})")
        rows.append([tuple(entry) for entry in row])
    elems = {c: gf.FieldElem(p, 2, c) for c in set().union(*rows)}
    return Matrix.from_rows(p, 2, [[elems[c] for c in r] for r in rows])


def parse_instance(data: dict) -> MinusculeInstance:
    """Rebuild an instance from JSON, re-validating every invariant."""
    if not isinstance(data, dict):
        raise InputError("schema: instance must be a JSON object")
    for key in ("p", "n", "field", "gram", "g", "tau", "seed", "signature"):
        if key not in data:
            raise InputError(f"schema: missing key {key!r}")
    p = data["p"]
    n = data["n"]
    if not _is_int(p):
        raise InputError("schema: p must be an integer")
    gf.require_odd_prime(p, "schema: p")
    if not _is_int(n) or n < 1:
        raise InputError("schema: n must be a positive integer")
    require_dim(n, "schema: n")
    poly2 = data["field"].get("poly2") if isinstance(data["field"], dict) else None
    if poly2 != list(gf.defining_poly(p, 2)):
        raise InputError("schema: poly2 violates the deterministic tower contract")
    seed = data["seed"]
    if not _is_int(seed):
        raise InputError("schema: seed must be an integer")
    signature = data["signature"]
    if not isinstance(signature, list) or not all(isinstance(s, str) for s in signature):
        raise InputError("schema: signature must be a list of strings")
    gram = _matrix_from_json(p, data["gram"], n, "gram")
    g = _matrix_from_json(p, data["g"], n, "g")
    tau = AntiInvolution(_matrix_from_json(p, data["tau"], n, "tau"))
    space = HermitianSpace(gram)
    return MinusculeInstance(
        p=p,
        space=space,
        g=g,
        tau=tau,
        fact=certify_instance(space, g, tau, seed),
        seed=seed,
        signature=tuple(signature),
        provenance="parsed",
    )
