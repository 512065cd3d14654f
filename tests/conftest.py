import pytest

from alcove_hecke.engine import build_engine
from alcove_hecke.ext_weyl import ExtWeyl
from alcove_hecke.root_datum import pair

SEMISIMPLE = ["A1_adj", "A2_adj", "B2_adj", "A1xA1_adj"]
# inline descriptors: rank 2 and 3 beyond the presets, and a datum with a
# central torus direction (GL2-style)
CUSTOM = {
    "G2": {"simple_roots": [[1, 0], [0, 1]], "simple_coroots": [[2, -1], [-3, 2]]},
    "A3": {
        "simple_roots": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "simple_coroots": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    },
    "GL2": {"simple_roots": [[1, -1]], "simple_coroots": [[1, -1]]},
}

# adjoint rank-3 data of types B and C (named by their roots); only loaded by
# the tests that name them, too slow for the per-datum fixtures
RANK3 = {
    "B3": {
        "simple_roots": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "simple_coroots": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    },
    "C3": {
        "simple_roots": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "simple_coroots": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    },
}


def type_a(n):
    """The adjoint datum of type A_n: unit simple roots, the Cartan matrix's
    columns as simple coroots."""
    return {
        "simple_roots": [[int(i == j) for j in range(n)] for i in range(n)],
        "simple_coroots": [[2 * (i == j) - (abs(i - j) == 1) for i in range(n)] for j in range(n)],
    }


# adjoint rank-4 data: the simple roots are the unit vectors, the simple
# coroots as listed; F4 has the largest Weyl group the loader accepts
RANK4 = {
    name: {"simple_roots": [[int(i == j) for j in range(4)] for i in range(4)],
           "simple_coroots": coroots}
    for name, coroots in {
        "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
        "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
        "B4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
        "F4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]],
    }.items()
}

# adjoint data whose Dynkin components interleave their indices: the simple
# roots are the unit vectors, the simple coroots as listed
INTERLEAVED = {
    name: {"simple_roots": [[int(i == j) for j in range(3)] for i in range(3)],
           "simple_coroots": coroots}
    for name, coroots in {
        "A1xA2": [[2, 0, -1], [0, 2, 0], [-1, 0, 2]],
        "A1xA1xA1": [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
        "B2xA1": [[2, 0, -1], [0, 2, 0], [-2, 0, 2]],
        "G2xA1": [[2, 0, -1], [0, 2, 0], [-3, 0, 2]],
    }.items()
}

# every datum the table oracles run on, and the descriptor of each name
EVERY_DATUM = SEMISIMPLE + list(CUSTOM) + list(RANK3) + list(INTERLEAVED) + list(RANK4)


def descriptor(name):
    return {**CUSTOM, **RANK3, **INTERLEAVED, **RANK4}.get(name, name)


_cache = {}


def plant_length_sign_flip(monkeypatch):
    """Flip the sign condition on w(alpha) in the length formula of every
    `ExtWeyl` built from now on.  The naive |1+c| -> |1-c| flip would be
    absorbed by the length complement identity and go unnoticed there."""

    def flipped(ext, x):
        n_pos = len(ext.datum.positive_roots)
        total = 0
        for j, alpha in zip(ext.datum.root_perms[x.w], ext.datum.positive_roots):
            c = pair(alpha, x.t)
            total += abs(c) if j >= n_pos else abs(1 + c)
        return total

    monkeypatch.setattr(ExtWeyl, "_length_formula", flipped)


def engine_for(name):
    if name not in _cache:
        _cache[name] = build_engine(CUSTOM.get(name, name))
    return _cache[name]


@pytest.fixture(scope="session")
def a1():
    return engine_for("A1_adj")


@pytest.fixture(scope="session")
def a2():
    return engine_for("A2_adj")


@pytest.fixture(scope="session")
def b2():
    return engine_for("B2_adj")


@pytest.fixture(scope="session", params=SEMISIMPLE)
def any_engine(request):
    return engine_for(request.param)


@pytest.fixture(scope="session", params=SEMISIMPLE + list(CUSTOM))
def datum_engine(request):
    return engine_for(request.param)
