"""Packed monomials against the tuple operations they replace.

Every ``Polynomial`` stores its monomials packed into single ints
(``rings._Packing``): a product is ``+``, the order is ``<``, and
divisibility and the exponent cap are mask tests.  Each of these must
agree with the tuple operation it stands for: ``RingContext.sort_key``
for the order, ``map(add)`` for the product, ``_mono_divides`` for
divisibility, ``_check_cap`` for the cap, and unpacking must give the
tuple back.  The pair update's field operations must agree with theirs
too: ``_mono_lcm`` for the field-wise lcm (with ``keyed`` putting the
packing back together) and ``_mono_coprime`` for coprimality.  ``moved``
must give the packing of the exponents padded with zeros in a wider ring
of the same cap.  Rings of arity 1 to 7, doubled and not, are drawn with
the caps below; exponents run up to ``2*cap``, the largest a product of
two monomials within the cap reaches, or up to the cap for
divisibility, lcm and coprimality, and the cap and its neighbours are
drawn often.
"""

from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liptriv import RingContext
from liptriv.rings import ExponentOverflow, _check_cap
from tests.oracles import _mono_coprime, _mono_divides, _mono_lcm

CAPS = (1, 2, 63, 64, 65, 1000)
NAMES = ("a", "b", "c", "d", "e", "f", "g")
# Doubling appends a mirror of every name but the parameter ``t``, so
# these halves double to arities 1 to 7.
HALVES = (
    ("t",),
    ("x",),
    ("t", "x"),
    ("x", "y"),
    ("t", "x", "y"),
    ("x", "y", "z"),
    ("t", "x", "y", "z"),
)


def ring_of(arity: int, cap: int, doubled: bool) -> RingContext:
    if doubled:
        half = next(h for h in HALVES if RingContext(h).doubled_extension().arity == arity)
        return RingContext(half, exponent_cap=cap).doubled_extension()
    return RingContext(NAMES[:arity], exponent_cap=cap)


@st.composite
def rings(draw) -> RingContext:
    return ring_of(draw(st.integers(1, 7)), draw(st.sampled_from(CAPS)), draw(st.booleans()))


def exponents(ring: RingContext, top: int):
    """Exponent vectors of ``ring`` with entries in ``0..top``, the cap,
    its neighbours and ``2*cap`` drawn often when they lie in range."""
    cap = ring.exponent_cap
    marked = sorted({e for e in (0, 1, cap - 1, cap, cap + 1, 2 * cap) if 0 <= e <= top})
    entry = st.one_of(st.sampled_from(marked), st.integers(0, top))
    return st.tuples(*(entry for _ in range(ring.arity)))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_round_trip_and_cap(data):
    ring = data.draw(rings())
    packing = ring._packing
    e = data.draw(exponents(ring, 2 * ring.exponent_cap))
    packed = packing.pack(e)
    assert packed >= 0
    assert packing.unpack(packed) == e
    assert_same_refusal(ring, packed, e)


def assert_same_refusal(ring: RingContext, packed: int, e: tuple) -> None:
    """``check_cap`` on the packing raises exactly what ``_check_cap``
    raises on the tuple ``e``, message included, so exactly when
    ``max(e) > cap``."""
    try:
        _check_cap(ring, (e,))
    except ExponentOverflow as exc:
        with pytest.raises(ExponentOverflow) as caught:
            ring._packing.check_cap(packed)
        assert str(caught.value) == str(exc)
    else:
        ring._packing.check_cap(packed)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_order_is_sort_key(data):
    ring = data.draw(rings())
    pack = ring._packing.pack
    top = 2 * ring.exponent_cap
    e, f = data.draw(exponents(ring, top)), data.draw(exponents(ring, top))
    key = ring.sort_key
    assert (pack(e) < pack(f)) == (key(e) < key(f))
    assert (pack(e) == pack(f)) == (e == f)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_product_divisibility_and_quotient(data):
    ring = data.draw(rings())
    packing = ring._packing
    cap = ring.exponent_cap
    e, f = data.draw(exponents(ring, cap)), data.draw(exponents(ring, cap))
    product = tuple(map(add, e, f))
    assert packing.pack(e) + packing.pack(f) == packing.pack(product)
    assert_same_refusal(ring, packing.pack(e) + packing.pack(f), product)
    assert packing.divides(packing.pack(e), packing.pack(f)) == _mono_divides(e, f)
    if _mono_divides(e, f):
        quotient = packing.pack(f) - packing.pack(e)
        assert quotient == packing.pack(tuple(map(sub, f, e)))
        assert packing.unpack(quotient) == tuple(map(sub, f, e))


def assert_lcm_and_coprime(ring: RingContext, e: tuple, f: tuple) -> None:
    """The field lcm and the coprimality test on ``e`` and ``f``, given
    as whole packings and as their fields, against the tuple ones."""
    packing = ring._packing
    a, b = packing.pack(e), packing.pack(f)
    lcm = _mono_lcm(e, f)
    for x, y in ((a, b), (a & packing.fields, b & packing.fields)):
        fields = packing.lcm(x, y)
        assert fields == packing.pack(lcm) & packing.fields
        assert packing.unpack(fields) == lcm
        assert packing.degree(fields) == sum(lcm)
        assert packing.keyed(fields) == packing.pack(lcm)
        assert packing.coprime(x, y) == _mono_coprime(e, f)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_lcm_and_coprime(data):
    ring = data.draw(rings())
    cap = ring.exponent_cap
    e, f = data.draw(exponents(ring, cap)), data.draw(exponents(ring, cap))
    assert_lcm_and_coprime(ring, e, f)
    # Supports drawn apart, so coprime pairs come up often.
    mask = data.draw(st.tuples(*(st.booleans() for _ in range(ring.arity))))
    apart = tuple(x if keep else 0 for x, keep in zip(e, mask))
    other = tuple(0 if keep else y for y, keep in zip(f, mask))
    assert_lcm_and_coprime(ring, apart, other)


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("doubled", [False, True], ids=["plain", "doubled"])
@pytest.mark.parametrize("arity", range(1, 8))
def test_boundary_exponents(arity, cap, doubled):
    """Every variable at ``cap``, ``cap + 1`` and ``2*cap``, alone and on
    top of every other variable at ``cap``."""
    ring = ring_of(arity, cap, doubled)
    packing = ring._packing
    full = (cap,) * arity
    vectors = [full, (0,) * arity]
    for i in range(arity):
        for value in (cap, cap + 1, 2 * cap):
            vectors.append(tuple(value if j == i else 0 for j in range(arity)))
            vectors.append(full[:i] + (value,) + full[i + 1 :])
    for e in vectors:
        packed = packing.pack(e)
        assert packing.unpack(packed) == e
        assert_same_refusal(ring, packed, e)
        for f in vectors:
            assert (packed < packing.pack(f)) == (ring.sort_key(e) < ring.sort_key(f))
            if max(e) <= cap and max(f) <= cap:
                assert packing.divides(packed, packing.pack(f)) == _mono_divides(e, f)
                assert_lcm_and_coprime(ring, e, f)
                assert packed + packing.pack(f) == packing.pack(tuple(map(add, e, f)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_moved_is_the_padded_monomial(data):
    source = data.draw(rings())
    extra = data.draw(st.integers(0, 3))
    offset = data.draw(st.integers(0, extra))
    names = tuple(f"v{i}" for i in range(source.arity + extra))
    target = RingContext(names, exponent_cap=source.exponent_cap)
    e = data.draw(exponents(source, source.exponent_cap))
    padded = (0,) * offset + e + (0,) * (extra - offset)
    moved = target._packing.moved(source._packing.pack(e), source._packing, offset)
    assert moved == target._packing.pack(padded)
