"""Both sides of the counting identities, their closed forms, and verdicts.

The analytic side is the alternating-weighted count over the set of
subspaces stable under both g and tau,

    A = - sum_{W} (-1)^{dim W} dim W,

read off the dimension counts |M_i| of that set, which script_w takes as the
coefficients of one product over the star orbits of the factors, with no
divisor enumerated.  The geometric side walks every g-invariant totally
isotropic W (isotropy decided by the actual Gram matrix, never inferred
from the signature), takes the characteristic polynomial of the
subquotient W-perp/W, and contributes type * (a+1)/2 exactly when it is
irreducible; the per-stratum fixed count can be re-derived by the eigenline
counter, and a disagreement there is a hard error, not a finding.  The
geometric walk and the even-dimensional counting identity each take the
lattice once, from linalg.invariant_subspaces, as the chains of one basis
read off a cyclic vector of g (regularity itself is certified by the forge,
not here): every W and W-perp is a row mask of it, yielded for every
isotropic divisor and no other by one depth-first walk
(hermitian.AdaptedBasis.divisors), in lexicographic exponent order.
W-perp/W is then a union of whole chain steps, so its characteristic
polynomial is a product of the chains' step polynomials, read off the
diagonal blocks of g written in the basis (hermitian.adapted_basis) once
per instance.  Only the eigenline recount forms a subquotient, a slice of
H and g in that basis, with H tested for full rank once per instance and
no stratum tested again.

Support (whether the geometric side can be nonempty) has a closed-form
criterion: a unique self-paired factor of odd exponent.  The engine never
feeds that criterion into the geometric walk, so the criterion itself is
verified in both directions on every instance.

Everything is an exact integer; log q is factored out of all identities,
and the p-adic inputs ell(gamma) and omega(gamma) are carried symbolically
(default ell = 0) with the dependence stated in the report notes.
"""

from __future__ import annotations

from .dl import dl_fixed_points
from .errors import CrossCheckError, InputError, Record
from .forge import MinusculeInstance, serialize_instance
from .hermitian import adapted_basis, induced_subquotient
from .linalg import Matrix, charpoly, invariant_subspaces
from .poly import FactoredPoly, Poly, poly_key

SIGN_NOTE = (
    "sign convention pinned to sum(mult) = -sum((-1)^l l); the orbital derivative "
    "carries the extra factor (-1)^(ell_gamma+1), and omega(gamma), log q are "
    "external symbolic inputs"
)
ELL_NOTE = "ell_gamma is not derivable from the finite data; reports use ell_gamma = 0"


def script_w(inst: MinusculeInstance) -> tuple[int, ...]:
    """The dimension counts |M_i|, i = 0..n, of the g- and tau-stable
    subspaces, the divisors with m_{tau(i)} = m_i: the coefficients of the
    product over the star orbits of sum_{k <= a} u^{k deg P} for a
    self-paired factor P^a and sum_{k <= a} u^{2k deg P} for a pair
    {P, star(P)}, each of exponent a."""
    counts = [1]
    for i, j in enumerate(inst.fact.pairing):
        if j < i:
            continue
        f, a = inst.fact.factors[i]
        step = f.degree if i == j else 2 * f.degree
        out = [0] * (len(counts) + a * step)
        for k in range(0, a * step + 1, step):
            for d, c in enumerate(counts):
                out[d + k] += c
        counts = out
    return tuple(counts)


def _analytic(counts) -> int:
    """A = -sum_W (-1)^{dim W} dim W over the g- and tau-stable subspaces."""
    return -sum((-1) ** d * d * c for d, c in enumerate(counts))


def _alternating(counts) -> int:
    return sum((-1) ** d * c for d, c in enumerate(counts))


def afl_support(fact: FactoredPoly):
    """Index of the unique self-paired odd-exponent factor, or None."""
    odd_selfpaired = [i for i in fact.self_paired() if fact.factors[i][1] % 2 == 1]
    return odd_selfpaired[0] if len(odd_selfpaired) == 1 else None


def pair_exponent_product(fact: FactoredPoly) -> int:
    out = 1
    for i, _ in fact.pairs():
        out *= 1 + fact.factors[i][1]
    return out


def closed_form_cardinality(fact: FactoredPoly) -> int:
    """prod over pairs (1 + a_i) times deg P_{i0}."""
    i0 = afl_support(fact)
    if i0 is None:
        raise InputError("closed forms require finite support")
    return pair_exponent_product(fact) * fact.factors[i0][0].degree


def closed_form_derivative_magnitude(fact: FactoredPoly) -> int:
    """prod over pairs (1 + a_i) times deg P_{i0} times (a_{i0} + 1)/2."""
    i0 = afl_support(fact)
    if i0 is None:
        raise InputError("closed forms require finite support")
    a0 = fact.factors[i0][1]
    return pair_exponent_product(fact) * fact.factors[i0][0].degree * ((a0 + 1) // 2)


# ---------------------------------------------------------------------------
# geometric side


class StratumRecord(Record):
    """One vertex stratum: type is dim W-perp/W, fixed_count 0 or type,
    multiplicity (a_{i0}+1)/2 on contributing strata and dl_count the
    eigenline recount when cross-checking (both None otherwise)."""

    __slots__ = _fields = (
        "exponents", "dim_w", "type", "quotient_charpoly", "fixed_count", "multiplicity", "dl_count"
    )

    def to_json(self):
        return {
            "exponents": list(self.exponents),
            "dim_w": self.dim_w,
            "type": self.type,
            "quotient_charpoly": self.quotient_charpoly.to_json(),
            "fixed_count": self.fixed_count,
            "multiplicity": self.multiplicity,
            "dl_count": self.dl_count,
        }


class GeometricResult(Record):
    __slots__ = _fields = ("strata", "total", "nonempty")

    def brute_cardinality(self) -> int:
        return sum(rec.fixed_count for rec in self.strata)


def geometric_count(inst: MinusculeInstance, cross_check: bool = True) -> GeometricResult:
    """Walk the vertex strata by divisor: the isotropic g-invariant W,
    actual-Gram isotropy, each W and W-perp a row mask of the adapted basis
    as its divisors() walk yields them.

    W-perp/W is the union of whole chain steps that W-perp adds to W, k_i
    of them in chain i, and g in B is block upper triangular over the
    steps, so its charpoly is the product of the step charpolys to the
    k_i: each step charpoly is taken once per instance, by charpoly of
    chain i's first diagonal step block of g in B, and each product once
    per vector (k_i).  A stratum contributes type * multiplicity when that
    charpoly is irreducible (equivalently: equals one of the P_i).  With
    cross_check the eigenline counter recounts each contributing stratum on
    its slice (induced_subquotient), and any disagreement raises
    CrossCheckError.
    """
    if inst.n % 2 == 0:
        raise InputError("the geometric count lives on odd dimensions")
    exponent_of = {poly_key(f): a for f, a in inst.fact.factors}
    strata = []
    total = 0
    basis = adapted_basis(invariant_subspaces(inst.g, inst.fact.factors), inst.space, inst.g)
    g = basis.g
    chains = [
        (((1 << a * d) - 1) << off, d,
         charpoly(Matrix(g.p, g.level, tuple(r[off:off + d] for r in g.rows[off:off + d]))))
        for off, d, a in basis.chains
    ]
    # (k_i) -> (the stratum charpoly, the exponent of that factor or None)
    products = {(0,) * len(chains): (Poly.one(g.p, g.level), None)}

    def product(steps):
        # one product per new vector: a known vector's times one step, of
        # the last chain with k_i > 0
        if steps not in products:
            i = max(j for j, k in enumerate(steps) if k)
            qcp = product((*steps[:i], steps[i] - 1, *steps[i + 1:]))[0] * chains[i][2]
            products[steps] = qcp, exponent_of.get(poly_key(qcp))
        return products[steps]

    for vec, w, perp in basis.divisors():
        rows = perp ^ w
        t = rows.bit_count()  # dim W-perp - dim W = n - 2 dim W
        qcp, a0 = product(tuple((rows & mask).bit_count() // d for mask, d, _ in chains))
        fixed, mult, dl_count = 0, None, None
        if a0 is not None:
            if a0 % 2 == 0:
                raise CrossCheckError("contributing stratum with even global exponent")
            fixed = t
            mult = (a0 + 1) // 2
            if cross_check:
                dl_count = len(dl_fixed_points(*induced_subquotient(basis, w, perp), seed=inst.seed))
                if dl_count != fixed:
                    raise CrossCheckError(
                        f"eigenline count {dl_count} disagrees with the formula count {fixed}"
                    )
            total += fixed * mult
        strata.append(StratumRecord(vec, (inst.n - t) // 2, t, qcp, fixed, mult, dl_count))
    return GeometricResult(tuple(strata), total, any(r.fixed_count for r in strata))


# ---------------------------------------------------------------------------
# orbital polynomial and the even-dimensional counting identity


def orbital_polynomial(inst: MinusculeInstance, ell_gamma: int = 0) -> dict[int, int]:
    """Coefficients of the orbital integral as a Laurent polynomial in u = q^{-s}.

    The coefficient of u^{i + ell_gamma} is (-1)^{i + ell_gamma} |M_i| where
    |M_i| counts the stable subspaces of dimension i.
    """
    return _orbital(script_w(inst), ell_gamma)


def _orbital(counts, ell_gamma: int) -> dict[int, int]:
    coeffs: dict[int, int] = {}
    for i, cnt in enumerate(counts):
        if cnt:
            e = i + ell_gamma
            coeffs[e] = coeffs.get(e, 0) + (-1) ** (e % 2) * cnt
    return {e: c for e, c in sorted(coeffs.items()) if c}


def orbital_value_at_one(coeffs: dict[int, int]) -> int:
    return sum(coeffs.values())

def orbital_derivative_at_one(coeffs: dict[int, int]) -> int:
    return sum(e * c for e, c in coeffs.items())


def orbital_pretty(coeffs: dict[int, int]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for e, c in sorted(coeffs.items()):
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            u = "u" if e == 1 else f"u^{e}"
            body = u if mag == 1 else f"{mag}{u}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def fl_check(inst: MinusculeInstance) -> tuple[int, int]:
    """Even-dimensional counting identity: alternating sum over the stable
    subspaces against the number of invariant Lagrangians (W-perp = W)."""
    if inst.n % 2:
        raise InputError("the counting identity lives on even dimensions")
    lhs = _alternating(script_w(inst))
    basis = adapted_basis(invariant_subspaces(inst.g, inst.fact.factors), inst.space, inst.g)
    rhs = sum(w == perp for _, w, perp in basis.divisors())
    return lhs, rhs


# ---------------------------------------------------------------------------
# verdicts


class Check(Record):
    __slots__ = _fields = ("name", "ok", "detail")


class VerificationReport(Record):
    """support is "Finite" or "Empty"; the closed forms are None on empty
    support; counts is script_w's tuple of dimension counts and orbital a
    dict from exponent to coefficient."""

    __slots__ = _fields = (
        "instance", "analytic", "geometric", "support", "closed_card", "closed_deriv",
        "counts", "alt_sum", "orbital", "checks", "notes",
    )
    _defaults = {"notes": ()}

    @property
    def verdict(self) -> str:
        return "PASS" if all(c.ok for c in self.checks) else "FAIL"

    def to_json(self) -> dict:
        deriv = orbital_derivative_at_one(self.orbital)
        return {
            "instance": serialize_instance(self.instance),
            "A": self.analytic,
            "G": self.geometric.total,
            "card": self.geometric.brute_cardinality(),
            "closed_card": self.closed_card,
            "closed_deriv": self.closed_deriv,
            "support": self.support,
            "strata": [rec.to_json() for rec in self.geometric.strata],
            "m_counts": {str(k): v for k, v in enumerate(self.counts) if v},
            "alt_sum": self.alt_sum,
            "orbital": {
                "ell_gamma": 0,
                "coeffs": {str(e): c for e, c in self.orbital.items()},
                "value_at_1": orbital_value_at_one(self.orbital),
                "derivative_at_1": deriv,
                "analytic_from_derivative": -deriv,
            },
            "verdict": self.verdict,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks],
            "notes": list(self.notes),
            "seed": self.instance.seed,
        }


def afl_verdict(inst: MinusculeInstance, cross_check: bool = True) -> VerificationReport:
    """Run every identity on one odd-dimensional instance and render a verdict.

    Identity failures become failed checks inside the report, never
    exceptions: hunting for convention errors and boundary cases is part of
    the artifact's purpose.
    """
    if inst.n % 2 == 0:
        raise InputError("verdicts are for odd-dimensional instances; use fl_check")
    fact = inst.fact
    counts = script_w(inst)
    a_count = _analytic(counts)
    geo = geometric_count(inst, cross_check=cross_check)
    i0 = afl_support(fact)
    support = "Finite" if i0 is not None else "Empty"
    alt = _alternating(counts)
    orb = _orbital(counts, 0)

    checks = [Check("analytic_equals_geometric", a_count == geo.total, f"A={a_count} G={geo.total}")]
    if i0 is not None:
        card = closed_form_cardinality(fact)
        deriv = closed_form_derivative_magnitude(fact)
        contributing = [r for r in geo.strata if r.fixed_count]
        checks.append(Check("support_agreement", geo.nonempty, "closed form predicts nonempty"))
        checks.append(
            Check("cardinality_closed_form", geo.brute_cardinality() == card,
                  f"brute {geo.brute_cardinality()} vs closed {card}")
        )
        checks.append(Check("derivative_closed_form", a_count == deriv and geo.total == deriv,
                            f"A={a_count} G={geo.total} closed {deriv}"))
        type0 = fact.factors[i0][0].degree
        checks.append(Check("stratum_types", all(r.type == type0 for r in contributing),
                            f"expected type {type0}"))
        checks.append(Check("stratum_count", len(contributing) == pair_exponent_product(fact),
                            f"{len(contributing)} vs {pair_exponent_product(fact)}"))
    else:
        card = deriv = None
        checks.append(Check("support_agreement", not geo.nonempty, "closed form predicts empty"))
        checks.append(Check("vanishing_counts", a_count == 0 and geo.total == 0,
                            f"A={a_count} G={geo.total}"))
    checks.append(Check("alternating_sum_zero", alt == 0, f"sum (-1)^dim = {alt}"))
    checks.append(
        Check("duality_m_counts", counts == counts[::-1],
              "dimension counts symmetric under i -> n-i")
    )
    checks.append(Check("orbital_vanishes_at_one", orbital_value_at_one(orb) == 0,
                        f"value {orbital_value_at_one(orb)}"))
    checks.append(
        Check("orbital_derivative_matches", -orbital_derivative_at_one(orb) == a_count,
              f"derivative {orbital_derivative_at_one(orb)}")
    )
    notes = [SIGN_NOTE, ELL_NOTE]
    if inst.n > 2 * inst.p - 2:
        notes.append(
            f"extrapolated: the multiplicity formula is proved for n <= 2p-2, "
            f"here n = {inst.n} with p = {inst.p}"
        )
    return VerificationReport(
        instance=inst,
        analytic=a_count,
        geometric=geo,
        support=support,
        closed_card=card,
        closed_deriv=deriv,
        counts=counts,
        alt_sum=alt,
        orbital=orb,
        checks=tuple(checks),
        notes=tuple(notes),
    )


def fl_report(inst: MinusculeInstance) -> dict:
    lhs, rhs = fl_check(inst)
    return {
        "instance": serialize_instance(inst),
        "lhs": lhs,
        "rhs": rhs,
        "verdict": "PASS" if lhs == rhs else "FAIL",
        "notes": [] if lhs == rhs else ["counting identity mismatch is a finding"],
        "seed": inst.seed,
    }

