import pytest

from ssi.ctype import INT, CType
from ssi.errors import SymbolicAddress
from ssi.memory import MMIO, STACK, Layout, Location, Store
from ssi.values import SymbolRoot, ValueTable, to_int

AT = ("t.c", 1)


def fresh():
    vals = ValueTable()
    return vals, Store(vals)


def test_alloc_regions_are_distinct():
    _, store = fresh()
    ids = {store.alloc_region(f"r{i}", STACK).id for i in range(100)}
    assert len(ids) == 100


def test_store_then_load_round_trip():
    vals, store = fresh()
    region = store.alloc_region("x", STACK)
    v = vals.concrete(32, 3, AT)
    store.store(Location(region.id, 0), v)
    out = store.load(Location(region.id, 0), 4, AT)
    assert out is v
    assert to_int(vals.resolve(out)) == 3


def test_overwrite_returns_latest():
    vals, store = fresh()
    region = store.alloc_region("x", STACK)
    store.store(Location(region.id, 0), vals.concrete(32, 1, AT))
    v2 = vals.concrete(32, 2, AT)
    store.store(Location(region.id, 0), v2)
    assert store.load(Location(region.id, 0), 4, AT) is v2


def test_untouched_load_mints_stable_symbol():
    vals, store = fresh()
    region = store.alloc_region("cell", STACK)
    before = len(vals)
    first = store.load(Location(region.id, 0), 4, AT)
    second = store.load(Location(region.id, 0), 4, AT)
    assert isinstance(first.payload, SymbolRoot)
    assert first.payload.label == f"mem:({region.id},0)"
    assert first is second
    assert len(vals) == before + 1


def test_a_cell_holds_the_value_stored_in_it(monkeypatch):
    vals, store = fresh()
    region = store.alloc_region("x", STACK)
    v = vals.concrete(32, 3, AT)
    store.store((region.id, 0), v)
    assert store.cells[(region.id, 0)] is v

    def no_lookup(vid):
        raise AssertionError("a load looked its value up by id")

    monkeypatch.setattr(vals, "get", no_lookup)
    assert store.load((region.id, 0), 4, AT) is v
    assert store.load(Location(region.id, 0), 4, AT) is v


def test_region_isolation():
    vals, store = fresh()
    a = store.alloc_region("a", STACK)
    b = store.alloc_region("b", STACK)
    store.store(Location(a.id, 0), vals.concrete(32, 9, AT))
    out = store.load(Location(b.id, 0), 4, AT)
    assert isinstance(out.payload, SymbolRoot)


def test_symbolic_offset_raises_with_blockers():
    vals, store = fresh()
    region = store.alloc_region("arr", STACK)
    s = vals.fresh_symbol("idx", AT)
    offset = vals.apply_binop("+", s, vals.concrete(32, 4, AT), AT)
    # Oracle: the blockers reported must be exactly what resolve() says
    # blocks the offset.
    expected = vals.labels_for(vals.resolve(offset).blockers)
    with pytest.raises(SymbolicAddress) as exc:
        store.load(Location(region.id, offset), 4, AT)
    assert list(exc.value.blockers) == expected == ["idx"]


def test_value_offset_resolving_concretely_is_fine():
    vals, store = fresh()
    region = store.alloc_region("arr", STACK)
    off = vals.apply_binop("+", vals.concrete(32, 4, AT),
                           vals.concrete(32, 8, AT), AT)
    store.store(Location(region.id, off), vals.concrete(32, 7, AT))
    assert to_int(vals.resolve(store.load(Location(region.id, 12), 4, AT))) == 7


def test_synthetic_layout_first_fit_and_stability():
    # Oracle: deterministic first-fit replay; first field lands at 0, the
    # next at the previous end, and repeat queries return the same slots.
    _, store = fresh()
    base = store.field_offset("bcm2835_pinctrl", "base")
    assert (base.offset, base.width) == (0, 4)
    lock = store.field_offset("bcm2835_pinctrl", "lock")
    assert lock.offset == 4
    again = store.field_offset("bcm2835_pinctrl", "base")
    assert (again.offset, again.width) == (0, 4)

    _, replay = fresh()
    assert replay.field_offset("bcm2835_pinctrl", "base").offset == 0
    assert replay.field_offset("bcm2835_pinctrl", "lock").offset == 4


def two_ints():
    layout = Layout()
    layout.add("a", INT, 4)
    layout.add("b", INT, 4)
    return layout


def test_installed_layout_is_used():
    # A body's layout, as the source gives it, is used and grows.
    _, store = fresh()
    store.layout_source = lambda tag: two_ints()
    assert store.field_offset("S", "b").offset == 4
    assert store.size_of(CType(tag="S")) == 8
    # Unknown fields extend past the end of the known layout.
    assert store.field_offset("S", "c").offset == 8
    assert store.size_of(CType(tag="S")) == 12


def test_layout_source_consulted_once():
    calls = []

    def source(tag):
        calls.append(tag)
        return two_ints() if tag == "S" else None

    _, store = fresh()
    store.layout_source = source
    assert store.field_offset("S", "b").offset == 4
    assert store.field_offset("S", "a").offset == 0
    assert store.layout("S") == two_ints()
    assert store.layout("U") is None  # no body, no member used
    assert store.field_offset("T", "x").offset == 0  # synthetic fallback
    assert store.field_offset("T", "y").offset == 4
    assert store.field_offset("U", "z").offset == 0
    assert store.size_of(CType(tag="U")) == 4
    assert calls == ["S", "U", "T"]


def test_mmio_region_carries_display_base():
    vals, store = fresh()
    region = store.alloc_region("ioremap:gpio", MMIO, size=0xB4)
    region.display_base = vals.concrete(32, 0x7E200000, AT)
    ptr = vals.addr_of(region.id, AT)
    r = vals.resolve(ptr)
    assert r.pointer == (region.id, 0)
    addr = vals.apply_binop("+", ptr, vals.concrete(32, 0x4C, AT), AT)
    assert vals.resolve(addr).pointer == (region.id, 0x4C)
