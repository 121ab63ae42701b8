import ast
import pathlib
import re

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import lightcone
from lightcone.errors import QuadratureNotConverged
from lightcone import quadrature, slayer
from lightcone.quadrature import converged, extrapolate_to_zero, gauss_legendre, gauss_rule, kronrod_rule


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_gauss_rule_exact_to_degree_2n_minus_1_on_scalar_bounds(rng, n):
    p = Polynomial(rng.normal(size=2 * n))
    x, w = gauss_rule(-0.7, 1.9, n)
    assert x.shape == w.shape == (n,)
    exact = p.integ()(1.9) - p.integ()(-0.7)
    assert np.sum(w * p(x)) == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_gauss_rule_exact_on_array_bounds(rng):
    n = 6
    p = Polynomial(rng.normal(size=2 * n))
    lo = rng.uniform(-2.0, 0.0, size=(3, 4))
    hi = rng.uniform(0.5, 2.0, size=(4,))
    x, w = gauss_rule(lo, hi, n)
    assert x.shape == w.shape == (3, 4, n)
    exact = p.integ()(hi) - p.integ()(lo)
    assert np.sum(w * p(x), axis=-1) == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_gauss_rule_misses_degree_2n():
    # the rule is exact to degree 2n - 1 and no further
    x, w = gauss_rule(0.0, 1.0, 3)
    assert abs(np.sum(w * x**6) - 1.0 / 7.0) > 1e-6


@pytest.mark.parametrize("lo, hi", [(-0.7, 1.9), (np.array([[-2.0], [0.3]]), np.array([0.5, 1.0, 4.0]))])
def test_kronrod_rule_exact_to_degree_31_and_its_gauss_rule_to_19(rng, lo, hi):
    x, wk, wg = kronrod_rule(lo, hi)
    shape = np.broadcast(lo, hi).shape
    assert x.shape == wk.shape == shape + (21,)
    assert wg.shape == shape + (10,)
    for degree, weights, nodes in ((31, wk, x), (19, wg, x[..., 1::2])):
        p = Polynomial(rng.normal(size=degree + 1))
        exact = p.integ()(hi) - p.integ()(lo)
        assert np.sum(weights * p(nodes), axis=-1) == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_kronrod_rule_misses_degree_32_and_its_gauss_rule_degree_20():
    # the degrees above are exact and no further
    x, wk, wg = kronrod_rule(-1.0, 1.0)
    assert abs(np.sum(wk * x**32) - 2.0 / 33.0) > 1e-12
    assert abs(np.sum(wg * x[1::2] ** 20) - 2.0 / 21.0) > 1e-7


def test_kronrod_rule_embeds_the_10_point_gauss_rule():
    x, wk, wg = kronrod_rule(-1.0, 1.0)
    nodes, weights = gauss_legendre(10)
    assert np.all(np.abs(x[1::2] - nodes) <= 2 * np.spacing(np.abs(nodes)))
    assert wg == pytest.approx(weights, rel=1e-14)
    assert np.all(np.diff(x) > 0.0) and x[10] == 0.0
    assert np.sum(wk) == pytest.approx(2.0, rel=1e-15)


def test_converged_returns_value():
    assert converged(2.0, 2.0 + 1e-12, 1e-9, "probe") == 2.0
    # the tolerance is relative to max(1, |value|)
    assert converged(1e-3, 1e-3 + 5e-10, 1e-9, "probe") == 1e-3


def test_converged_raises_naming_the_integral():
    with pytest.raises(QuadratureNotConverged, match="nested probe"):
        converged(1.0, 1.0 + 1e-6, 1e-9, "nested probe")


def test_converged_holds_arrays_and_scalars_to_one_rule():
    # scalars are compared as Python complex numbers; numpy scalars and
    # arrays agree with them
    for value, other, ok in ((2.0, 2.0 + 1e-12, True), (1e-3, 1e-3 + 5e-10, True), (1.0, 1.0 + 1e-6, False)):
        for wrap in (float, complex, np.float64, np.complex128, np.atleast_1d):
            if ok:
                assert converged(wrap(value), wrap(other), 1e-9, "probe") == wrap(value)
            else:
                with pytest.raises(QuadratureNotConverged, match="probe"):
                    converged(wrap(value), wrap(other), 1e-9, "probe")


def test_converged_rejects_values_that_are_not_finite():
    nan, inf = float("nan"), float("inf")
    pairs = [(nan, 1.0), (1.0, nan), (nan, nan), (inf, inf), (-inf, -inf), (inf, 1.0), (1.0, inf)]
    pairs += [(complex(1.0, inf), complex(1.0, inf)), (complex(nan, 0.0), 0.0), (np.float64(inf), np.float64(inf))]
    for value, other in pairs:
        with pytest.raises(QuadratureNotConverged, match="probe"):
            converged(value, other, 1e-9, "probe")
    # one entry of an array fails them all
    good = np.array([1.0, 2.0, 3.0])
    for bad in (nan, inf):
        broken = good.copy()
        broken[1] = bad
        for value, other in ((broken, good), (good, broken), (broken, broken.copy())):
            with pytest.raises(QuadratureNotConverged, match="probe"):
                converged(value, other, 1e-9, "probe")


@pytest.mark.parametrize("xs", [(0.05, 0.025), (0.08, 0.04, 0.02)])
def test_extrapolate_to_zero_reproduces_polynomials(xs):
    # a polynomial of degree len(xs) - 1 is its own interpolant
    p = Polynomial((0.3 - 0.2j, 1.7, -4.0)[: len(xs)])
    assert extrapolate_to_zero(xs, [p(x) for x in xs]) == pytest.approx(p(0.0), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 48, 72, 200])
def test_gauss_legendre_matches_the_eigenvalue_rule(n):
    # numpy's eigenvalue rule as the reference: the nodes agree to roundoff;
    # its weights lose digits as n grows (2e-11 relative at n = 200)
    x, w = gauss_legendre(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xr)) <= 2.5e-16
    assert w == pytest.approx(wr, rel=1e-10, abs=0.0)


def test_gauss_legendre_is_symmetric_and_exact_to_degree_2n_minus_2():
    n = 200
    x, w = gauss_legendre(n)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0.0)
    # the eigenvalue rule is off by 1.9e-12 relative here
    assert np.sum(w * x ** (2 * n - 2)) == pytest.approx(2.0 / (2 * n - 1), rel=1e-14, abs=0.0)


def test_gauss_legendre_raises_past_its_newton_cap(monkeypatch):
    monkeypatch.setattr(quadrature, "NEWTON_STEPS", 1)
    with pytest.raises(QuadratureNotConverged, match="n = 200"):
        gauss_legendre.__wrapped__(200)


def _src_modules_matching(pattern):
    """The file names of the package's modules whose source matches pattern."""
    src = pathlib.Path(lightcone.__file__).parent
    return [path.name for path in sorted(src.glob("*.py")) if re.search(pattern, path.read_text())]


def test_time_and_the_cube_group_act_from_outside_the_functionals():
    # a mode's phase at time t is written by fields.time_translate (and
    # FermionicJet.at), so no slayer function takes a time argument; and the
    # cube group is enumerated exactly, so no module keys on rounded floats
    tree = ast.parse(pathlib.Path(slayer.__file__).read_text())
    timed = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if arg.arg in ("t", "t0")
    ]
    assert timed == []
    assert _src_modules_matching(r"\b(np|numpy)\.(round|around|round_)\b") == []


def test_only_the_quadrature_layer_builds_gauss_rules():
    # every other module maps its nodes through gauss_rule or kronrod_rule,
    # and none holds the Kronrod constants: their first eight digits
    constants = (
        *quadrature._QK21_ABSCISSAE[:-1],
        *quadrature._QK21_KRONROD_WEIGHTS,
        *quadrature._QK21_GAUSS_WEIGHTS,
    )
    digits = "|".join(f"{c:.17e}".replace(".", "")[:8] for c in constants)
    offenders = _src_modules_matching(rf"\b(gauss_legendre|leggauss)\b|{digits}")
    assert [name for name in offenders if name != "quadrature.py"] == []
    # no LAPACK eigen-solve builds a rule, in quadrature.py either: it cost
    # a cold process tens of milliseconds in multithreaded BLAS
    assert _src_modules_matching(r"\b(np|numpy)\.polynomial\b|\bleggauss\b|\beigvalsh\b") == []
    assert len(constants) == 26 and "quadrature.py" in _src_modules_matching(digits)


def test_src_holds_no_per_mode_maxwell_layer():
    # Maxwell fields are row arrays like jets: no per-mode type, no term
    # list, and no second on-shell check or zero-momentum error beside the
    # constructor's
    assert _src_modules_matching(r"\b(MaxwellMode|OffShellField|ZeroMomentumMode)\b|\.terms\(") == []
