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
need.  The builder knows the factorization of charpoly(g), since it drew
the block polynomials, so the instance is certified on that claim, checked
rather than recomputed (poly.certify_factorization).

random_coxeter_instance uses the field model instead: V = F_{q^{2n}} with
basis 1, b, ..., b^{n-1}, the trace form h(x, y) = Tr(x y^{q^n}), g given by
multiplication with a norm-one element s of F_{q^{2n}}, and tau = the q^n
power map.  When s generates the field, the characteristic polynomial is
irreducible and self-paired.  Everything but s and g depends on (q, n)
alone: the power basis, the coordinate map, tau and the Gram matrix are
built once per (q, n) per process (_coxeter_frame).  The draw of s, the
generation test (the tau-orbit of s has length n), g and the instance, whose
constructor certifies it by factoring charpoly(g) and checks its signature,
are per seed, so every instance is certified whole.

The signature mini-language is "sp:<deg>:<exp>" / "cp:<deg>:<exp>", joined
by commas; "coxeter:<n>" names the blocks sp:<n>:1 and routes to the second
builder.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import chain

from . import gf
from .errors import CrossCheckError, ForgeError, InputError, InvariantError, Record
from .gf import FieldElem
from .hermitian import is_unitary, validate_anti_involution, validate_space
from .linalg import Matrix, charpoly, is_regular, null_basis, rref
from .poly import FactoredPoly, Poly, certify_factorization, factor, poly_key, power_product, star

GRAM_TRIES = 64
GENERATOR_TRIES = 64
N_MAX = 81  # dimension bound; README gives the timed runs behind it
# digit bound of spec_number: below 640, the lowest int-to-str limit CPython
# can be set to, so every seed S + i a sweep derives from S still prints
DIGITS_MAX = 600


class BlockSpec(Record):
    """One block of a signature: kind is "sp" (self-paired) or "cp"
    (conjugate pair), realized by a random irreducible of the given degree
    raised to the exponent."""

    __slots__ = _fields = ("kind", "degree", "exponent")

    def __init__(self, kind: str, degree: int, exponent: int):
        if kind not in ("sp", "cp"):
            raise InputError(f"unknown block kind {kind!r}")
        if degree < 1 or exponent < 1:
            raise InputError("signature degrees and exponents must be positive")
        if kind == "sp" and degree % 2 == 0:
            raise InputError("self-paired irreducibles have odd degree")
        Record.__init__(self, kind, degree, exponent)

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
        if len(fields) != 3:
            raise InputError(f"bad signature block {part!r}; expected sp:<deg>:<exp> or cp:<deg>:<exp>")
        where = f"signature block {len(blocks) + 1}"
        blocks.append(BlockSpec(fields[0], spec_number(fields[1], f"{where} degree"),
                                spec_number(fields[2], f"{where} exponent")))
    require_dim(signature_dim(blocks), "signature dimension")
    return tuple(blocks)


def spec_number(text: str, where: str) -> int:
    """The one reader of an integer written as text, in a spec (a degree,
    exponent or n) or on argv: an optional '-' and then at most DIGITS_MAX
    ASCII digits, else InputError naming where and the text's length, not
    the text, which may be long.  int() also reads '+', spaces, underscores
    and other scripts' digits."""
    digits = text[1:] if text.startswith("-") else text
    if len(digits) <= DIGITS_MAX and digits.isascii() and digits.isdigit():
        return int(text)
    raise InputError(f"{where}: a text of {len(text)} characters is not an integer of at most {DIGITS_MAX} ASCII digits")


def signature_dim(sig) -> int:
    return sum(b.dim for b in sig)


def require_dim(n: int, what: str) -> None:
    if n > N_MAX:
        raise InputError(f"{what} must be at most {N_MAX}, got {n}")


def parse_spec(spec: str) -> tuple[BlockSpec, ...]:
    """The blocks a spec names: a comma-joined block signature, or
    'coxeter:<n>', which names sp:<n>:1; malformed specs raise InputError."""
    spec = spec.strip()
    if spec.startswith("coxeter:"):
        n = spec_number(spec.split(":", 1)[1], "coxeter dimension")
        require_dim(n, "coxeter dimension")
        return (BlockSpec("sp", n, 1),)
    return parse_signature(spec)


class MinusculeInstance(Record):
    """A certified instance: space is the Gram matrix G of the form
    h(x, y) = x^T G conj(y), g (a Matrix) is regular and unitary for h, tau
    is the matrix S of the anti-involution x -> S conj(x); signature holds
    block spec strings.  The constructor certifies: fact, the FactoredPoly of
    charpoly(g), is certify_instance(space, g, tau, claim), a derived slot
    left out of equality, hash, repr and pickle.  claim, a builder's
    factorization of charpoly(g), is checked and not stored, so the
    certificate is a function of (space, g, tau) alone, and a pickle or
    deepcopy certifies again by factoring.  The blocks signature names must
    be the shape of fact, or InvariantError: it is never echoed unchecked."""

    _fields = ("space", "g", "tau", "seed", "signature")
    __slots__ = (*_fields, "fact")

    def __init__(self, space: Matrix, g: Matrix, tau: Matrix, seed: int, signature: tuple[str, ...], *, claim=None):
        Record.__init__(self, space, g, tau, seed, signature)
        fact = certify_instance(space, g, tau, claim=claim)
        # the shape of fact: one sp per self-paired factor, one cp per star pair
        shape = [("sp" if i == j else "cp", *fact.factors[i]) for i, j in enumerate(fact.pairing) if i <= j]
        if _named_shape(signature) != sorted((kind, f.degree, a) for kind, f, a in shape):
            raise InvariantError("the signature does not name the factorization of charpoly(g)")
        object.__setattr__(self, "fact", fact)

    @property
    def p(self) -> int:
        return self.space.p

    @property
    def n(self) -> int:
        return self.space.n


def _named_shape(signature) -> list[tuple[str, int, int]]:
    """The sorted (kind, degree, exponent) of the blocks the spec strings
    name, read by parse_spec."""
    return sorted((b.kind, b.degree, b.exponent) for spec in signature for b in parse_spec(spec))


# ---------------------------------------------------------------------------
# random irreducibles via minimal polynomials of tower elements


def _min_poly_over_quadratic(z: FieldElem) -> Poly | None:
    """Minimal polynomial of a level-2d element over F_{q^2}, or None if its
    Galois orbit is shorter than d (z lies in a proper subfield)."""
    orbit = gf.tau_orbit(z)
    if len(orbit) != z.level // 2:
        return None
    prod = Poly.one(z.p, z.level)
    for r in orbit:
        prod = prod * Poly.x_minus(r)
    coeffs = [gf.descend(c) for c in prod.coeffs]
    return Poly.from_elems(z.p, 2, coeffs)


def _random_irreducible(p: int, kind: str, degree: int, rng) -> Poly:
    """The minimal polynomial over F_{q^2} of a random nonzero element of
    F_{q^{2d}}, retried (GENERATOR_TRIES tries) until it has degree d: for
    "sp" the element is first raised to the norm-one power q^d - 1, which
    makes it self-paired, and for "cp" a self-paired one is drawn again."""
    level = 2 * degree
    for _ in range(GENERATOR_TRIES):
        z = gf.random_elem(p, level, rng)
        if z.is_zero:
            continue
        if kind == "sp":
            z = z ** (p**degree - 1)
        cand = _min_poly_over_quadratic(z)
        if cand is not None and cand.degree == degree and (kind == "sp" or star(cand) != cand):
            return cand
    what = "self-paired" if kind == "sp" else "non-self-paired"
    raise ForgeError(f"could not sample a {what} irreducible of degree {degree} over F_{p * p} (q = {p})")


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
        for _ in range(GENERATOR_TRIES):
            cand = _random_irreducible(p, block.kind, block.degree, rng)
            keys = {poly_key(cand), poly_key(star(cand))}
            if not keys & seen:
                break
        else:
            raise ForgeError("could not sample a fresh block polynomial")
        seen |= keys
        out.append(cand)
    return out


# ---------------------------------------------------------------------------
# tau on companion blocks


def _inverse_t_powers(modulus: Poly):
    """Coefficient columns of T^{-j} mod modulus for j = 0..deg-1.

    Writing modulus = f0 + T h(T), the inverse of T is -h(T)/f0, already
    reduced since deg h < deg modulus, so a step is a shift and one scaled
    add: T^{-1} (c_0 + T r(T)) = r(T) + c_0 T^{-1}."""
    p, level = modulus.p, modulus.level
    f0 = modulus.coeffs[0]
    if f0.is_zero:
        raise InputError("T is not invertible modulo the block polynomial")
    scale = -f0.inverse()
    inv_t = [c * scale for c in modulus.coeffs[1:]]
    z = gf.zero(p, level)
    cols = [[gf.one(p, level)] + [z] * (modulus.degree - 1)]
    for _ in range(1, modulus.degree):
        c0 = cols[-1][0]
        cols.append([a + c0 * b for a, b in zip(cols[-1][1:] + [z], inv_t)])
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
            mod = power_product([(fp, block.exponent)])
            g_blocks.append(Matrix.companion(mod))
            tau_cols.extend((off, col) for col in _inverse_t_powers(mod))
            pairs.append((off, mod.degree, off, mod.degree))
            off += mod.degree
        else:
            mod_a = power_product([(fp, block.exponent)])
            mod_b = power_product([(star(fp), block.exponent)])
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


def _solve_gram(g: Matrix, pairs, seed, label) -> Matrix:
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
            return gm  # certified with the rest of the instance
    raise ForgeError(
        f"no nondegenerate Gram matrix found for {where} within {GRAM_TRIES} tries "
        f"(solution space dimension {len(basis)} over F_{p})"
    )


# ---------------------------------------------------------------------------
# builders


def certify_instance(gram: Matrix, g: Matrix, tau: Matrix, claim=None) -> FactoredPoly:
    """Check every instance axiom and return the factorization of charpoly(g).

    Without a claim the factorization is factor(charpoly(g)); with one, the
    pairs (P, a) a builder drew, it is certify_factorization's check of the
    claim, which by unique factorization is the same FactoredPoly or an
    InvariantError: a false claim is refused, never trusted.

    Raises InvariantError naming the first broken axiom.  Regularity is
    decided exactly on that factorization, with one echelon form per
    repeated factor: a factor of multiplicity one cannot break it, so a
    squarefree characteristic polynomial costs none.  This is the one place
    regularity is decided: the lattice only draws its cyclic vector.  Its
    one src caller is the MinusculeInstance constructor, so certificates are
    never trusted from disk and the invariant has one source, which reads
    (gram, g, tau) alone: no seed enters a unique factorization, and a claim
    can only agree with it or be refused."""
    validate_space(gram)
    if not is_unitary(g, gram):
        raise InvariantError("g is not unitary for the hermitian form")
    chi = charpoly(g)
    fact = factor(chi) if claim is None else certify_factorization(chi, claim)
    if not is_regular(g, fact.factors):
        raise InvariantError("g is not regular")
    validate_anti_involution(tau, gram, g)
    return fact


def build_block_instance(sig, p: int, seed: int) -> MinusculeInstance:
    """Certified instance realizing a factorization signature exactly."""
    gf.require_odd_prime(p, "q")
    if not sig:
        raise InputError("empty signature")
    require_dim(signature_dim(sig), "signature dimension")
    _check_realizable(sig, p)
    sig_string = ",".join(b.spec_string() for b in sig)
    rng = random.Random(f"forge:{p}:{sig_string}:{seed}")
    polys = _resolve_polys(sig, p, rng)
    g, tau, pairs = _assemble_blocks(sig, polys)
    space = _solve_gram(g, pairs, seed, sig_string)
    # the drawn block polynomials, with star(P) for the second block of a pair
    claim = [(f, b.exponent) for b, fp in zip(sig, polys) for f in ((fp, star(fp)) if b.kind == "cp" else (fp,))]
    return MinusculeInstance(space, g, tau, seed, tuple(b.spec_string() for b in sig), claim=claim)


@lru_cache(maxsize=None)
def _coxeter_frame(p: int, n: int):
    """The seed-independent part of a Coxeter instance of F_{q^{2n}}:
    (powers, to_coords, tau, space), the power basis 1, b, ..., b^(n-1),
    the packed map of _coords, the matrix of the q^n-power map and the Gram
    matrix of the trace form.  Callers validate (p, n) first, so only valid
    keys enter the cache."""
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
        raise CrossCheckError("power basis failed to span the field")
    binv = [[gf.encode_int(a) for a in row[level:]] for row in red]
    # z -> its coordinates in that basis, one packed F_p-linear map: power
    # basis vector k goes to column k of binv
    to_coords = gf.packed_map(p, level, list(zip(*binv)))

    # tau is the q^n-power map, b^j -> (b^j)^(q^n)
    bq = b ** (p**n)
    tau_images = [gf.one(p, level)]
    for _ in range(1, n):
        tau_images.append(tau_images[-1] * bq)
    tau = Matrix.from_rows(p, 2, [_coords(to_coords, img) for img in tau_images]).transpose()
    # h(b^i, b^j) = Tr(b^i tau(b^j)).  z -> (descend Tr(b^i z))_i is F_p-linear
    # and sends b^k to the traces of b^k, ..., b^(k+n-1): one packed map from
    # the 3n - 1 traces Tr(b^m), each descended (and so checked to lie in
    # F_{q^2}), whose value at tau(b^j) is column j of the Gram matrix
    bm = list(powers)
    while len(bm) < 3 * n - 1:
        bm.append(bm[-1] * b)
    traces = [gf.descend(gf.quadratic_trace(x)).coeffs for x in bm]
    to_gram = gf.packed_map(p, level, [tuple(chain.from_iterable(traces[k : k + n])) for k in range(level)])
    gram_cols = [gf.linear_apply(p, to_gram, img.coeffs) for img in tau_images]
    space = Matrix.from_rows(p, 2, [[FieldElem(p, 2, col[2 * i : 2 * i + 2]) for col in gram_cols] for i in range(n)])
    return tuple(powers), to_coords, tau, space


def _coords(to_coords, z: FieldElem) -> tuple:
    """The F_{q^2}-coordinates of z in the power basis 1, b, ..., b^(n-1)."""
    vec = gf.linear_apply(z.p, to_coords, z.coeffs)
    return tuple(FieldElem(z.p, 2, vec[2 * k : 2 * k + 2]) for k in range(z.level // 2))


def random_coxeter_instance(p: int, n: int, seed: int) -> MinusculeInstance:
    """Certified instance from the norm-one torus of F_{q^{2n}} (n odd).

    The frame comes from _coxeter_frame, once per (q, n); the draw of s, g
    and the certificate are per seed.  s generates F_{q^{2n}} over F_{q^2}
    exactly when its tau-orbit has length n.  When GENERATOR_TRIES samples
    give no such s, ForgeError names the degree of the last witness.
    """
    gf.require_odd_prime(p, "q")
    if n < 1 or n % 2 == 0:
        raise InputError("the torus model needs odd n >= 1")
    require_dim(n, "coxeter dimension")
    powers, to_coords, tau, space = _coxeter_frame(p, n)
    rng = random.Random(f"coxeter:{p}:{n}:{seed}")
    norm_exp = p**n - 1
    witness_degree = 0
    for _ in range(GENERATOR_TRIES):
        y = gf.random_elem(p, 2 * n, rng)
        if y.is_zero:
            continue
        s_elem = y**norm_exp
        witness_degree = len(gf.tau_orbit(s_elem))
        if witness_degree != n:
            continue
        g = Matrix.from_rows(p, 2, [_coords(to_coords, s_elem * bj) for bj in powers]).transpose()
        return MinusculeInstance(space, g, tau, seed, (f"coxeter:{n}",))
    raise ForgeError(
        "exhausted attempts to find a generating norm-one element; "
        f"last witness has minimal polynomial of degree {witness_degree} < {n}"
    )


def instance_from_spec(spec: str, p: int, seed: int) -> MinusculeInstance:
    """Build 'coxeter:<n>' in the torus model, and a block signature block
    by block."""
    blocks = parse_spec(spec)
    if spec.strip().startswith("coxeter:"):
        return random_coxeter_instance(p, blocks[0].degree, seed)
    return build_block_instance(blocks, p, seed)


# ---------------------------------------------------------------------------
# JSON round trip


def serialize_instance(inst: MinusculeInstance) -> dict:
    return {
        "p": inst.p,
        "n": inst.n,
        "field": {"poly2": list(gf.defining_poly(inst.p, 2))},
        "gram": inst.space.to_json(),
        "g": inst.g.to_json(),
        "tau": inst.tau.to_json(),
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
    for spec in signature:
        try:
            parse_spec(spec)
        except InputError as exc:
            raise InputError(f"schema: signature: {exc}") from exc
    space = _matrix_from_json(p, data["gram"], n, "gram")
    g = _matrix_from_json(p, data["g"], n, "g")
    tau = _matrix_from_json(p, data["tau"], n, "tau")
    return MinusculeInstance(space, g, tau, seed, tuple(signature))
