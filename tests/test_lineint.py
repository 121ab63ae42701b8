import dataclasses
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightcone import lineint
from lightcone.errors import QuadratureNotConverged, TailNotNegligible, TooCloseToSingularSet
from lightcone.lineint import (
    I,
    J,
    JTILDE,
    SUBTRACTIONS,
    U,
    V,
    bidist_A_oracle,
    compact_identity_residual,
    damped_delta_block,
    damped_sign_block,
    eval_piecewise,
    nested_line_integral,
    unbounded_line_integral,
)
from lightcone.quadrature import gauss_rule, kronrod_rule

rational = st.fractions(min_value=-50, max_value=50, max_denominator=64)
unit = st.fractions(min_value=0, max_value=1, max_denominator=64).filter(lambda x: x < 1)
# about half of its draws in [0, 1), where V enters the chi identity
unit_or_rational = st.one_of(unit, rational)


def _exact(f, a, b):
    """f(a, b) at Fractions a, b, through f.scaled on their numerators and denominators."""
    return Fraction(int(f.scaled(a.numerator, a.denominator, b.numerator, b.denominator)), a.denominator * b.denominator)


def test_frozen_point_values():
    assert _exact(J, Fraction(2), Fraction(1, 2)) == Fraction(-1, 2)
    assert _exact(I, Fraction(2), Fraction(1, 2)) == Fraction(3, 2)
    assert _exact(U, Fraction(2), Fraction(1)) == Fraction(-2)
    assert _exact(JTILDE, Fraction(1, 2), Fraction(1, 4)) == Fraction(1, 4)
    assert _exact(V, Fraction(1, 2), Fraction(1, 4)) == Fraction(-3, 4)
    # outside all regions
    assert _exact(U, Fraction(1), Fraction(-1)) == 0
    assert _exact(I, Fraction(1, 2), Fraction(1, 2)) == 0


@settings(max_examples=300, deadline=None)
@given(rational, rational)
def test_subtraction_chain_exact(a, b):
    # the chain agrees with the compactified weight away from the (null)
    # region boundaries
    if a == b or a in (0, 1) or b in (0, 1):
        return
    assert _exact(J, a, b) - sum(_exact(p, a, b) for p in SUBTRACTIONS) == _exact(JTILDE, a, b)


@settings(max_examples=300, deadline=None)
@given(unit_or_rational, unit_or_rational)
def test_compactified_difference_exact(a, b):
    # JTILDE - U is V on the half-open unit square [0,1)^2 and 0 elsewhere
    assert compact_identity_residual(a.numerator, a.denominator, b.numerator, b.denominator) == 0


def test_compact_identity_residual_bulk(rng):
    pa, pb = rng.integers(-200, 200, size=(2, 2000))
    qa, qb = rng.integers(1, 32, size=(2, 2000))
    assert compact_identity_residual(pa, qa, pb, qb) == 0


@settings(max_examples=200, deadline=None)
@given(rational, rational)
def test_antisymmetries(a, b):
    # J is odd under the point reflection through (1/2, 1/2); U and V are
    # odd under swapping the arguments (away from null boundary sets)
    if a not in (0, 1) and b not in (0, 1) and a != b:
        assert _exact(J, 1 - a, 1 - b) == -_exact(J, a, b)
        assert _exact(U, b, a) == -_exact(U, a, b)
        assert _exact(V, b, a) == -_exact(V, a, b)


@pytest.mark.parametrize("fn", ["J", "I", "U", "Jtilde", "V"])
def test_array_evaluation_matches_scalar_bit_for_bit(fn):
    # a dyadic grid, where every float is exact: multiples of 1/64 on
    # [-2, 3], which hold the region boundaries a, b in {0, 1} and the
    # diagonal a = b, and -0.0.  Each float value is the exact value
    # scaled(64 a, 64, 64 b, 64) / 64^2, and a cell in no region is 0 * a
    steps = np.append(np.arange(-128, 193), 0)
    axis = np.append(steps[:-1] / 64.0, -0.0)
    a, b = np.meshgrid(axis, axis, indexing="ij")
    pa, pb = np.meshgrid(steps, steps, indexing="ij")
    f = lineint._FUNCTIONS[fn]
    covered = np.any([r.contains(pa, 64, pb, 64) for r in f.regions], axis=0)
    expected = np.where(covered, f.scaled(pa, 64, pb, 64) / 64**2, 0 * a)
    values = eval_piecewise(fn, a, b)
    assert np.array_equal(values.view(np.int64), expected.view(np.int64))
    assert np.signbit(values).any()  # -0.0 cells are kept, not turned into 0.0


def test_identity_draw_matches_scalar_draws():
    # the verify suite (denominators below 40) and acceptance criterion 3
    # (below 64) draw their integers in one call with per-element bounds;
    # that takes the same values, in the same order, as one draw per element
    for seed, q_hi in ((7, 40), (11, 40), (123, 40), (303, 64), (7, 64)):
        lo, hi = np.tile([-400, 1, -400, 1], 500), np.tile([400, q_hi, 400, q_hi], 500)
        scalar = np.random.default_rng(seed)
        draws = [int(scalar.integers(low, high)) for low, high in zip(lo, hi)]
        assert np.random.default_rng(seed).integers(lo, hi).tolist() == draws


def test_homogeneous_identity_catches_a_wrong_coefficient(rng, monkeypatch):
    # samples around the unit square, where V enters the identity
    pa, pb = rng.integers(-40, 80, size=(2, 500))
    qa, qb = rng.integers(1, 40, size=(2, 500))
    # c3 = 5 in place of 4 adds a*b to V below the diagonal, which the
    # identity sees on [0,1)^2 only
    wrong = dataclasses.replace(lineint.V.regions[0], coeffs=(0, -1, -3, 5))
    monkeypatch.setattr(lineint, "V", dataclasses.replace(lineint.V, regions=(wrong, lineint.V.regions[1])))
    worst = compact_identity_residual(pa, qa, pb, qb)
    below = (pa >= 0) & (pa < qa) & (pb >= 0) & (pb < qb) & (pa * qb > pb * qa)
    assert worst > 0.0
    assert worst == np.max(np.abs(pa * pb) / (qa * qb), where=below, initial=0.0)


def test_eval_piecewise_dispatch():
    assert eval_piecewise("J", 2.0, 0.5) == -0.5
    with pytest.raises(KeyError):
        eval_piecewise("nope", 0, 0)


def test_nested_line_integral_anchors():
    x, y = np.zeros(4), np.ones(4)
    one = lambda z: 1.0
    assert nested_line_integral(one, one, x, y, (0, 0, 0), (0, 0, 0)) == pytest.approx(
        1.0, abs=1e-12
    )
    # int tau dtau = 1/2; int (1-tau) dtau = 1/2
    assert nested_line_integral(one, one, x, y, (1, 0, 0), (0, 1, 0)) == pytest.approx(
        0.25, abs=1e-12
    )
    # int (tau - tau^2) dtau = 1/6
    assert nested_line_integral(one, one, x, y, (0, 0, 1), (0, 0, 0)) == pytest.approx(
        1.0 / 6.0, abs=1e-12
    )


def test_nested_line_integral_linear_profile():
    # F(z) = z0 at z = tau*y, G = 1, weights 1: int_0^1 tau dtau = 1/2
    x, y = np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0])
    val = nested_line_integral(lambda z: z[0], lambda z: 1.0, x, y, (0, 0, 0), (0, 0, 0))
    assert val == pytest.approx(0.5, abs=1e-12)


def _beta_moment(w, m):
    """int_0^1 tau^m tau^p (1-tau)^q (tau - tau^2)^r dtau = B(p+r+m+1, q+r+1)."""
    p, q, r = w
    a, b = p + r + m, q + r
    return Fraction(factorial(a) * factorial(b), factorial(a + b + 1))


def test_nested_line_integral_linear_closed_form(rng):
    # F(z) = a.z, G(z) = b.z: the inner integral over z~ = z + tau~ (y - z)
    # is c0 + c1 tau in the outer variable, leaving Beta moments of w1
    for _ in range(10):
        a, b, x, y = rng.normal(size=(4, 4))
        w1, w2 = (tuple(int(c) for c in rng.integers(0, 4, size=3)) for _ in range(2))
        m0, m1 = (float(_beta_moment(w2, m)) for m in (0, 1))
        n0, n1, n2 = (float(_beta_moment(w1, m)) for m in (0, 1, 2))
        c0 = (b @ x) * (m0 - m1) + (b @ y) * m1
        c1 = (b @ (y - x)) * (m0 - m1)
        ax, ad = a @ x, a @ (y - x)
        closed = ax * c0 * n0 + (ax * c1 + ad * c0) * n1 + ad * c1 * n2
        val = nested_line_integral(lambda z: a @ z, lambda z: b @ z, x, y, w1, w2)
        # a bound on the integrand's size, so a cancelling closed form
        # does not tighten the test below roundoff
        scale = np.linalg.norm(a) * np.linalg.norm(b) * max(x @ x, y @ y) * n0 * m0
        assert abs(val - closed) <= 1e-12 * scale, (w1, w2)


def test_nested_line_integral_calls_integrands_once_per_rule():
    shapes = {"F": [], "G": []}

    def record(name, value):
        def fn(z):
            shapes[name].append(z.shape)
            return value(z)

        return fn

    x, y = np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0])
    # G returns a scalar, broadcast over its columns
    val = nested_line_integral(record("F", lambda z: z[0]), record("G", lambda z: 1.0), x, y, (0, 0, 0), (0, 0, 0))
    assert val == pytest.approx(0.5, abs=1e-12)
    assert shapes == {"F": [(4, 48), (4, 72)], "G": [(4, 48 * 48), (4, 72 * 72)]}


def test_unbounded_line_integral_against_quad():
    from scipy.integrate import quad

    def j(point):
        t = point[0]
        r = np.linalg.norm(point[1:])
        damp = np.exp(-0.25 * (t * t + r * r))
        return np.array([damp, 0.3 * damp, -0.1 * damp, 0.0])

    x = np.array([0.3, 0.1, -0.2, 0.4])
    direction = np.array([1.0, 0.0, 0.0])
    val = unbounded_line_integral(j, x, direction, cutoff=8.0)

    def integrand(a):
        point = x + a * np.concatenate(([1.0], direction))
        jk = j(point)
        return a * a * np.sign(a) * (jk[0] - direction @ jk[1:])

    ref, _ = quad(integrand, -8.0, 8.0, limit=200)
    assert val == pytest.approx(ref, abs=1e-10)


def reference_unbounded_line_integral(j, x, direction, cutoff):
    """unbounded_line_integral as a loop: one Python sum per 60-node panel,
    8 panels on [-cutoff, cutoff] (no tail estimate)."""
    xi = np.concatenate(([1.0], direction))
    total = 0.0
    for k in range(8):
        lo = -cutoff + 2.0 * cutoff * k / 8
        hi = -cutoff + 2.0 * cutoff * (k + 1) / 8
        for a, w in zip(*gauss_rule(lo, hi, 60)):
            jk = np.asarray(j(x + a * xi), dtype=float)
            total += w * a * a * np.sign(a) * (jk[0] - direction @ jk[1:])
    return total


def test_unbounded_line_integral_matches_the_loop(rng):
    # the contraction over all nodes at once sums in another order than
    # the loop, so the two agree to roundoff, not bit for bit
    for _ in range(5):
        coeffs, shift = rng.normal(size=4), 0.3 * rng.normal(size=4)
        x = np.concatenate(([0.2 * rng.normal()], 0.4 * rng.normal(size=3)))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)

        def j(point):
            z = point - shift
            return coeffs * np.exp(-float(z @ z) / 18.0)

        val = unbounded_line_integral(j, x, direction, 15.0)
        ref = reference_unbounded_line_integral(j, x, direction, 15.0)
        assert abs(val - ref) <= 1e-13 * max(1.0, abs(ref))


def test_unbounded_line_integral_rejects_fat_tail():
    j = lambda point: np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(TailNotNegligible):
        unbounded_line_integral(j, np.zeros(4), np.array([1.0, 0.0, 0.0]), cutoff=4.0)


def test_unbounded_line_integral_calls_j_once_per_node():
    points = []

    def j(point):
        points.append(point)
        return np.exp(-float(point @ point)) * np.ones(4)

    unbounded_line_integral(j, np.zeros(4), np.array([0.0, 1.0, 0.0]), 6.0)
    # 8 panels on [-cutoff, cutoff] and 2 tail panels, 21 Kronrod nodes each
    assert len(points) == 10 * 21
    assert all(p.shape == (4,) for p in points)


def test_unbounded_line_integral_guard_rejects_a_spike():
    # a spike of width 0.02 at a = 1.37, inside the panel [1, 2]: the
    # Kronrod nodes and the Gauss nodes among them see different parts of it
    j = lambda point: np.array([np.exp(-0.5 * ((point[0] - 1.37) / 0.02) ** 2), 0.0, 0.0, 0.0])
    with pytest.raises(QuadratureNotConverged, match="unbounded line integral"):
        unbounded_line_integral(j, np.zeros(4), np.array([1.0, 0.0, 0.0]), cutoff=4.0)


def test_unbounded_line_integral_runs_its_guard(monkeypatch):
    # with a zero tolerance any gap between the Kronrod and Gauss values raises
    j = lambda point: np.exp(-float(point @ point) / 8.0) * np.array([1.0, 0.2, -0.3, 0.1])
    x, direction = np.array([0.1, 0.2, 0.0, -0.1]), np.array([0.0, 0.6, 0.8])
    assert np.isfinite(unbounded_line_integral(j, x, direction, 10.0))
    monkeypatch.setattr(lineint, "LINE_INTEGRAL_RTOL", 0.0)
    with pytest.raises(QuadratureNotConverged):
        unbounded_line_integral(j, x, direction, 10.0)


def test_damped_blocks_match_closed_forms():
    for w in (0.7, 1.7, -2.3):
        for eps in (1e-1, 1e-2):
            assert damped_sign_block(w, eps) == pytest.approx(
                -2j * w / (w * w + eps * eps), abs=1e-9
            )
            assert damped_delta_block(w, eps) == pytest.approx(
                2.0 * eps / (w * w + eps * eps), abs=1e-9
            )


def reference_damped_blocks(w, ladder):
    """_damped_blocks as the explicit rule: 21-point Kronrod panels on
    [0, 40/min(ladder)], sin(a w) and cos(a w) at every node, and each
    rung's damping factor applied node by node (no guard)."""
    upper = 40.0 / min(ladder)
    npanels = int(np.ceil(upper * max(abs(w), 0.25) / (2.0 * np.pi)))
    edges = np.linspace(0.0, upper, npanels + 1)
    a, wk, _ = kronrod_rule(edges[:-1], edges[1:])
    sin, cos = np.sin(a * w), np.cos(a * w)
    e = np.array([-2j * np.sum(wk * np.exp(-eps * a) * sin) for eps in ladder])
    d = np.array([2.0 * np.sum(wk * np.exp(-eps * a) * cos) for eps in ladder])
    return e, d


@pytest.mark.parametrize("ladder", [(5e-2, 2.5e-2), (1e-2,), (1e-1,)])
@pytest.mark.parametrize("w", [0.1, 0.7, -2.3, 4.8, 10.0])  # 0.1: the clamped 0.25 period
def test_damped_blocks_sum_the_explicit_rule(w, ladder):
    # the factored sum reorders the rule's arithmetic, so it agrees with the
    # explicit rule to roundoff of the sum over up to ~6400 panels
    for got, want in zip(lineint._damped_blocks(w, ladder), reference_damped_blocks(w, ladder)):
        assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("w", [4.8, 10.0])
def test_damped_blocks_hold_their_closed_forms_to_roundoff(w):
    # at damping 1e-2 the rule has 64k and 134k nodes on [0, 4000]; summed
    # node by node (reference_damped_blocks) it missed by 2.4e-13 and 6.1e-13
    eps = 1e-2
    e, d = lineint._damped_blocks(w, (eps,))
    assert abs(e[0] - (-2j * w / (w * w + eps * eps))) <= 1e-13
    assert abs(d[0] - 2.0 * eps / (w * w + eps * eps)) <= 1e-13


def test_damped_blocks_are_the_ladder_rule_at_one_rung():
    for w, eps in ((0.7, 1e-1), (-2.3, 1e-2)):
        e, d = lineint._damped_blocks(w, (eps,))
        assert damped_sign_block(w, eps) == e[0]
        assert damped_delta_block(w, eps) == d[0]


def test_damped_blocks_raise_past_their_panel_cap():
    # one period per panel on [0, 40/damping] would take about 2.5 million
    # panels here; a clamped rule returned D = -1.4e-6 against 2.5e-9
    for block in (damped_sign_block, damped_delta_block):
        with pytest.raises(QuadratureNotConverged, match="panels"):
            block(2000.0, 0.005)


def test_damped_blocks_run_their_guard(monkeypatch):
    # with a zero tolerance any gap between the Kronrod and Gauss values raises
    monkeypatch.setattr(lineint, "DAMPED_BLOCK_RTOL", 0.0)
    with pytest.raises(QuadratureNotConverged, match="damped sign block"):
        damped_sign_block(1.7, 1e-2)
    with pytest.raises(QuadratureNotConverged, match="damped"):
        bidist_A_oracle(1.3, 0.7)


@pytest.mark.parametrize("damping", [None, 2.5e-2])
def test_bidist_makes_one_rule_per_frequency(monkeypatch, damping):
    # u, v and u + v each get one Kronrod rule, shared by every rung
    calls = []
    kronrod_rule = lineint.kronrod_rule

    def recording(lo, hi):
        calls.append(lo)
        return kronrod_rule(lo, hi)

    monkeypatch.setattr(lineint, "kronrod_rule", recording)
    bidist_A_oracle(1.3, 0.7, damping=damping)
    assert len(calls) == 3


def test_bidist_extrapolation_suppresses_delta_blocks():
    # off the singular set the delta blocks vanish in the zero-damping
    # limit, so the extrapolated value is far below any single rung
    for u, v in ((1.3, 0.7), (2.1, -0.9), (0.9, 1.7)):
        extrapolated = bidist_A_oracle(u, v)
        single = bidist_A_oracle(u, v, damping=2.5e-2)
        assert abs(extrapolated) < 0.05 * abs(single)


def test_bidist_oracle_assembles_the_closed_form_blocks():
    # at (0.6, -0.5) the u + v block is large, D(0.1) ~ 4.7, and the u - v
    # block small, D(1.1) ~ 0.04, so a slip between them in the -2 E(u) D(u + v)
    # term moves the value by about 31, the size of the value itself
    u, v, eps = 0.6, -0.5, 2.5e-2
    e = lambda w: -2j * w / (w * w + eps * eps)
    d = lambda w: 2.0 * eps / (w * w + eps * eps)
    closed = e(u) * d(v) - d(u) * e(v) - 2.0 * e(u) * d(u + v)
    assert abs(bidist_A_oracle(u, v, damping=eps) - closed) <= 1e-9


def test_bidist_rejects_singular_arguments():
    with pytest.raises(TooCloseToSingularSet):
        bidist_A_oracle(1.0, -1.0)  # u + v = 0
    with pytest.raises(TooCloseToSingularSet):
        bidist_A_oracle(0.05, 1.0)  # u within the damping ladder
