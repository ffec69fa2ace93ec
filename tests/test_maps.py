"""The seven named maps, the Phi family, and forced affine composition."""

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from real3x1 import maps
from real3x1.errors import DomainError
from real3x1.maps import (
    MAPS,
    BranchRule,
    MapSpec,
    PhiParams,
    affine_offset,
    apply_affine,
    compose_affine,
    map_from_name,
    step,
)
from real3x1.sampling import draw_rationals

F2 = Fraction


def test_U_steps():
    U = MAPS["U"]
    assert step(U, F2(3, 2)) == (F2(11, 4), 1)
    assert step(U, F2(2)) == (F2(1), 0)
    assert step(U, F2(1)) == (F2(2), 1)
    assert step(U, F2(5, 2)) == (F2(5, 4), 0)
    assert step(U, F2(19, 5)) == (F2(31, 5), 1)  # floor 3 is odd
    with pytest.raises(DomainError):
        step(U, F2(1, 2))


def test_Uflip_steps():
    """The flip lives in the dispatch: the multiplying piece runs on even floors."""
    Uf = MAPS["Uflip"]
    assert step(Uf, F2(1, 2)) == (F2(5, 4), 1)  # floor 0 even, multiply
    assert step(Uf, F2(5, 4)) == (F2(5, 8), 0)  # floor 1 odd, halve
    assert step(Uf, F2(1)) == (F2(1, 2), 0)
    assert step(Uf, F2(0)) == (F2(1, 2), 1)
    with pytest.raises(DomainError):
        step(Uf, F2(-1, 4))


def test_integer_maps():
    T, f = MAPS["T"], MAPS["f"]
    assert step(T, F2(7)) == (F2(11), 1)
    assert step(T, F2(10)) == (F2(5), 0)
    assert step(f, F2(7)) == (F2(22), 1)
    assert step(f, F2(10)) == (F2(5), 0)
    for bad in (F2(3, 2), F2(0)):
        with pytest.raises(DomainError):
            step(T, bad)
        with pytest.raises(DomainError):
            step(f, bad)


def test_g_steps():
    g = MAPS["g"]
    assert step(g, F2(1, 5)) == (F2(4, 5), 1)
    assert step(g, F2(4, 5)) == (F2(2, 5), 0)
    assert step(g, F2(2, 5)) == (F2(1, 5), 0)
    assert step(g, F2(-5)) == (F2(-7), 1)
    assert step(g, F2(-7)) == (F2(-10), 1)
    assert step(g, F2(-10)) == (F2(-5), 0)
    # the reduced form decides the domain and the parity: 2/6 is 1/3, 3/6 is 1/2
    assert step(g, F2(2, 6)) == (F2(1), 1)
    for bad in (F2(1, 2), F2(3, 6)):
        with pytest.raises(DomainError):
            step(g, bad)


def test_F_and_V_steps():
    F, V = MAPS["F"], MAPS["V"]
    assert step(F, F2(3, 2)) == (F2(11, 2), 1)
    assert step(F, F2(11, 2)) == (F2(35, 2), 1)
    assert step(F, F2(2)) == (F2(1), 0)
    assert step(V, F2(3, 2)) == (F2(9, 4), 1)
    assert step(V, F2(2)) == (F2(1), 0)
    assert step(V, F2(1)) == (F2(3, 2), 1)
    with pytest.raises(DomainError):
        step(V, F2(1, 2))


def test_branch_bit_is_multiply_indicator():
    # bit 1 always marks the gamma*x + delta piece, whatever the dispatch rule
    for name, x in (("U", F2(3, 2)), ("T", F2(7)), ("g", F2(1, 5)), ("F", F2(3, 2)), ("V", F2(1)), ("Uflip", F2(1, 2))):
        m = MAPS[name]
        y, bit = step(m, x)
        assert bit == 1
        assert y == m.params.gamma * x + m.params.delta, f"{name} multiply piece mismatch at {x}"


def test_phi_parsing():
    m = map_from_name("Phi:1/2,0,3/2,1/2,0")
    assert step(m, F2(1, 2)) == (F2(1, 4), 0)  # no domain floor unless given
    bounded = map_from_name("Phi:1/2,0,3/2,1/2,0,1")
    with pytest.raises(DomainError):
        step(bounded, F2(1, 2))
    assert map_from_name("U") is MAPS["U"]
    for bad in ("Phi:1,2", "Phi:1,2,3,4,5,6,7", "W", "Phi:1,0,1,0,2"):
        with pytest.raises(ValueError):
            map_from_name(bad)


def test_maps_pickle_after_use():
    """The cached step is dropped on pickling and rebuilt, in the same form, on the copy's first use."""
    generic = map_from_name("Phi:1/2,0,3/2,1/2,1/3,0")
    shaped = map_from_name("Phi:1/2,0,3/2,1/2,1")
    for spec in (generic, MAPS["U"], shaped):
        step(spec, F2(3, 2))  # caches the integer step on the spec
        assert "step_pq" not in spec.__getstate__()
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and "step_pq" not in vars(copy)
        for x in (F2(3, 2), F2(7), F2(19, 5), F2(11, 3)):
            assert step(copy, x) == step(spec, x)
        assert copy.step_pq.__qualname__ == spec.step_pq.__qualname__


def test_phi_params_validation():
    p = PhiParams(F2(1, 2), 0, F2(3, 2), F2(1, 2), 1)
    assert p.tau == 1 and isinstance(p.beta, Fraction)
    with pytest.raises(ValueError):
        PhiParams(1, 0, 1, 0, 2)
    with pytest.raises(ValueError):
        PhiParams(1, 0, 1, 0, F2(-1, 4))


def test_phi_tau_shifts_dispatch():
    # tau = 1/2 moves the window: floor(x + 1/2) drives the choice
    m = map_from_name("Phi:1/2,0,3/2,1/2,1/2")
    assert step(m, F2(3, 5))[1] == 1  # floor(11/10) = 1
    assert step(m, F2(2, 5))[1] == 0  # floor(9/10) = 0


@given(st.integers(min_value=1, max_value=10**9))
def test_U_T_g_agree_on_integers(n):
    """Floor parity and numerator parity coincide on the integers."""
    x = F2(n)
    yU, bU = step(MAPS["U"], x)
    yT, bT = step(MAPS["T"], x)
    yg, bg = step(MAPS["g"], x)
    assert yU == yT == yg and bU == bT == bg


def oracle_step(m, x):
    """The map written out on Fractions: the reference the integer step must match."""
    if m.integral and x.denominator != 1:
        raise DomainError(f"{m.name} is defined on integers only, got {x}")
    if m.branch_rule is BranchRule.NUMERATOR_PARITY and x.denominator % 2 == 0:
        raise DomainError(f"{m.name} needs an odd reduced denominator, got {x}")
    if m.domain_min is not None and x < m.domain_min:
        raise DomainError(f"{m.name} is defined for x >= {m.domain_min}, got {x}")
    p = m.params
    if m.branch_rule is BranchRule.FLOOR_PARITY:
        bit = math.floor(x + p.tau) % 2
    else:
        bit = x.numerator % 2
    return (p.gamma * x + p.delta if bit else p.alpha * x + p.beta), bit


rationals = st.fractions(max_denominator=10**12) | st.integers().map(Fraction)
phi_maps = st.builds(
    lambda a, b, c, d, tau, lo: MapSpec("Phi", PhiParams(a, b, c, d, tau), BranchRule.FLOOR_PARITY, lo),
    *[st.fractions(max_denominator=1000)] * 4,
    st.fractions(min_value=0, max_value=2, max_denominator=60).filter(lambda t: t < 2),
    st.none() | st.fractions(max_denominator=100),
)


# Phi maps of the shaped form: pieces (a*x + b) / e with a in {1, 3} and e in {1, 2, 4},
# an integer tau and an integer minimum or none
shaped_pieces = st.tuples(st.sampled_from([1, 3]), st.integers(-12, 12), st.sampled_from([1, 2, 4]))
shaped_phi_maps = st.builds(
    lambda p0, p1, tau, lo: MapSpec(
        "Phi",
        PhiParams(F2(p0[0], p0[2]), F2(p0[1], p0[2]), F2(p1[0], p1[2]), F2(p1[1], p1[2]), tau),
        BranchRule.FLOOR_PARITY,
        lo,
    ),
    shaped_pieces,
    shaped_pieces,
    st.sampled_from([0, 1]),
    st.none() | st.integers(-20, 20).map(Fraction),
)


@given(st.sampled_from(list(MAPS.values())) | phi_maps | shaped_phi_maps, rationals)
@settings(max_examples=300, deadline=None)
def test_integer_step_matches_the_fraction_oracle(m, x):
    """Image, bit and DomainError text agree; the pair comes back reduced."""
    p, q = x.numerator, x.denominator
    try:
        want = oracle_step(m, x)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            m.step_pq(p, q, p // q)
        assert str(got.value) == str(exc)
        with pytest.raises(DomainError):
            step(m, x)
        return
    y, bit = want
    assert m.step_pq(p, q, p // q) == (y.numerator, y.denominator, bit)
    assert step(m, x) == want


def _form(m):
    return m.step_pq.__qualname__.split(".")[0]


def test_step_form_follows_the_piece_shape():
    """Named floor-parity maps and Phi maps of their shape get the shaped step; tau = 1/2, a
    fractional minimum, a slope outside {1, 3}/2^k and the numerator-parity maps keep the generic one."""
    shaped = [MAPS[n] for n in ("U", "Uflip", "V", "F")]
    shaped += [map_from_name(t) for t in ("Phi:1/2,0,3/2,1/2,0", "Phi:1/2,0,3/2,1/2,1,-3", "Phi:1/4,5/4,3,-7,1")]
    generic = [MAPS[n] for n in ("T", "f", "g")]
    generic += [
        map_from_name(t)
        for t in ("Phi:1/2,0,3/2,1/2,1/2", "Phi:1/2,0,3/2,1/2,0,1/2", "Phi:1/2,0,5/2,1/2,0", "Phi:1/3,0,3/2,1/2,0")
    ]
    assert {_form(m) for m in shaped} == {"_shaped_step_pq"}
    assert {_form(m) for m in generic} == {"_generic_step_pq"}


def _outcome(fn, p, q):
    try:
        return fn(p, q, p // q)
    except DomainError as exc:
        return "DomainError", str(exc)


def test_shaped_step_matches_the_generic_step():
    """Image, bit and DomainError text of the shaped step equal the generic step's on orbit pairs
    from 32-bit starts, on negative starts of an unbounded map, on zero images and below each minimum."""
    rng = random.Random("shaped-step")
    unbounded = map_from_name("Phi:1/2,0,3/2,1/2,0")  # U's pieces, no minimum
    cases = [(MAPS[n], draw_rationals(rng, 60, 32, 32, MAPS[n].domain_min)) for n in ("U", "Uflip", "V", "F")]
    cases.append((unbounded, [F2(-rng.randint(1, 1 << 32), rng.randint(1, 1 << 32)) for _ in range(60)]))
    pairs = {}
    for m, starts in cases:
        seen = pairs.setdefault(m, set())
        for x in starts:
            p, q = x.numerator, x.denominator
            for _ in range(40):
                seen.add((p, q))
                p, q, _b = m.step_pq(p, q, p // q)
    for m in (*pairs, map_from_name("Phi:1/2,0,3/2,1/2,1,-3"), map_from_name("Phi:1/2,0,3,1,0")):
        # zero images (x = 0 halves, x = -1/3 through (3x + 1) / 2 and, with F's pieces, 3x + 1)
        # and starts below the minimum
        pairs.setdefault(m, set()).update({(0, 1), (-1, 3), (-2, 3), (-1, 1), (-7, 2), (1, 3), (-19, 6)})
    zeros = 0
    for m, todo in pairs.items():
        generic = maps._generic_step_pq(m)
        for p, q in sorted(todo):
            got = _outcome(m.step_pq, p, q)
            assert got == _outcome(generic, p, q), (m.name, p, q)
            zeros += got[:2] == (0, 1)
    assert zeros == 4


def test_affine_offset_frozen():
    assert affine_offset((1,)) == 1
    assert affine_offset((0,)) == 0
    assert affine_offset((1, 0)) == 1
    assert affine_offset((0, 1)) == 2
    assert affine_offset((1, 0, 0)) == 1
    assert affine_offset((1, 1, 0)) == 5
    assert affine_offset((1, 1, 1, 0, 0)) == 19
    with pytest.raises(ValueError):
        affine_offset(())
    with pytest.raises(ValueError):
        affine_offset((1, 2))


def test_compose_affine_frozen():
    assert compose_affine((1, 0)) == (3, 4, 1)
    assert compose_affine((1, 1, 0)) == (9, 8, 5)
    assert compose_affine((0, 0)) == (1, 4, 0)
    assert apply_affine((3, 4, 1), F2(1)) == F2(1)
    assert apply_affine((9, 8, 5), F2(-5)) == F2(-5)


bit_seqs = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12)
odd_denom_x = st.builds(F2, st.integers(-999, 999), st.sampled_from([1, 3, 5, 7, 9]))


@given(bit_seqs, odd_denom_x)
def test_forced_chain_matches_composition(bits, x):
    """Stepping the forced branches one by one equals the composed affine map."""
    y = x
    for b in bits:
        y = (3 * y + 1) / 2 if b else y / 2
    assert y == apply_affine(compose_affine(bits), x)


@given(bit_seqs)
def test_compose_affine_shape(bits):
    three_n, two_l, off = compose_affine(bits)
    n, l = sum(bits), len(bits)
    assert three_n == 3**n and two_l == 2**l
    assert off == affine_offset(bits) if n else off == 0
