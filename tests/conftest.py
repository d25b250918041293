import random
from types import SimpleNamespace

import pytest

from afl_lab import gf
from afl_lab.linalg import Matrix
from afl_lab.poly import Poly


def felem(p, level, *coeffs):
    return gf.elem(p, level, coeffs)


def poly_from_ints(p, level, rows):
    return Poly.from_elems(p, level, [gf.elem(p, level, r) for r in rows])


def tables_with(t, **replaced):
    """A stand-in for the tables gf.index_rows hands a kernel, with some of
    them replaced."""
    tables = {name: getattr(t, name) for name in ("add", "sub", "mul", "inv", "frob", "elems")}
    return SimpleNamespace(**(tables | replaced))


def random_matrix(p, level, n, rng):
    return Matrix.from_rows(
        p, level,
        [[gf.elem(p, level, [rng.randrange(p) for _ in range(level)]) for _ in range(n)] for _ in range(n)],
    )


def random_monic(p, level, degree, rng, nonzero_constant=True):
    while True:
        coeffs = [gf.elem(p, level, [rng.randrange(p) for _ in range(level)]) for _ in range(degree)]
        coeffs.append(gf.one(p, level))
        f = Poly.from_elems(p, level, coeffs)
        if not nonzero_constant or not f.coeffs[0].is_zero:
            return f


@pytest.fixture
def rng():
    return random.Random(1234)
