"""Property-based tests for bit masks (hypothesis)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.topology.affinity import BitMask

widths = st.integers(min_value=1, max_value=64)


@st.composite
def mask_and_width(draw):
    width = draw(widths)
    bits = draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    return BitMask(bits=bits, width=width), width


@given(mask_and_width())
def test_indices_roundtrip(mw):
    mask, width = mw
    assert BitMask.from_indices(mask.indices(), width) == mask


@given(mask_and_width())
def test_count_matches_indices(mw):
    mask, _ = mw
    assert mask.count() == len(mask.indices())


@given(mask_and_width(), mask_and_width())
def test_union_contains_both(a, b):
    ma, wa = a
    mb, wb = b
    if wa != wb:
        return
    u = BitMask(bits=ma.bits | mb.bits, width=wa)
    assert set(u.indices()) == set(ma.indices()) | set(mb.indices())
    assert ma.is_subset(u) and mb.is_subset(u)
    assert u.is_subset(ma) == mb.is_subset(ma)


@given(mask_and_width())
def test_str_parses_back_to_same_count(mw):
    mask, _ = mw
    text = str(mask)
    if mask.is_empty():
        assert text == "{}"
    else:
        parts = text.strip("{}").split(",")
        total = 0
        for p in parts:
            if "-" in p:
                lo, hi = map(int, p.split("-"))
                total += hi - lo + 1
            else:
                total += 1
        assert total == mask.count()


@given(mask_and_width())
def test_first_is_minimum(mw):
    mask, _ = mw
    if not mask.is_empty():
        assert mask.first() == min(mask.indices())
