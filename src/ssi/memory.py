"""Region-offset memory model.

Every allocation, global, static, string literal, array or struct variable,
and opaque pointer base is its own region; addresses are (region, byte
offset) pairs or ``Location``s, a slotted dataclass of the two, and a cell
holds its Value. Loading an untouched cell mints a fresh symbol and keeps
it, so repeated loads agree. Pointer arithmetic stays within a region,
which isolates the module under interpretation from absolute-address
reasoning.

A scalar local (an integer or a pointer) is held: its ``Place`` keeps its
value, under a region id ``reserve`` hands out with no Region built, so
every region id is the one a Region per local would take. ``spill`` moves it
into the store when its address is first taken; no pointer to it can exist
before. ``held`` maps each reserved id to its Place while its frame runs, so
that ``load`` of its (region, 0) cell still answers; ``release`` drops a
returned call's.

``Layout.add`` is the one rule that places a struct member: packed, at the
end (a union's members too). ``Store.layout`` finds a tag's layout, asking
``layout_source`` (the tag's first file-scope body, in file order, else its
first block-scope body compiled) once; an untagged body is tagged with its
text. A member that no body declares is a 4-byte int added on first use,
which is stable for a given access order.
``Store.size_of`` gives the bytes of a ``ctype.CType``, a struct's from its
layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ctype import ARRAY, INT, CType
from .errors import SymbolicAddress
from .values import Concrete, Value, ValueTable, to_int

STACK = "stack"
STATIC = "static"
MMIO = "mmio"
OPAQUE = "opaque"


@dataclass(slots=True)
class Region:
    id: int
    label: str
    kind: str
    size: int | None = None
    display_base: Value | None = None  # the rendered base (mmio)


@dataclass(slots=True, unsafe_hash=True)
class Location:
    region: int
    offset: int | Value  # a Value must resolve concretely on access


@dataclass
class FieldInfo:
    offset: int
    width: int  # bytes the field takes
    type: CType


@dataclass
class Layout:
    """A struct's members by name, and its size in bytes."""

    fields: dict[str, FieldInfo] = field(default_factory=dict)
    size: int = 0

    def add(self, name: str, ctype: CType, width: int) -> FieldInfo:
        """Place member ``name`` of ``width`` bytes at the end."""
        info = self.fields[name] = FieldInfo(self.size, width, ctype)
        self.size += width
        return info


class Store:
    def __init__(self, values: ValueTable):
        self.values = values
        values.region_lookup = self.region
        self.regions: dict[int, Region] = {}
        self.next_region = 1  # the id the next region or held local takes
        self.cells: dict[tuple[int, int], Value] = {}
        self.held: dict[int, object] = {}  # reserved region id -> held Place, in id order
        self.layouts: dict[str, Layout | None] = {}  # tag -> layout; None: no body (yet)
        self.taints: dict[int, object] = {}  # region id -> MissingCall
        self.layout_source = None   # callable(tag) -> Layout | None

    # --------------------------------------------------------------- regions
    def alloc_region(self, label: str, kind: str, size=None) -> Region:
        region = Region(self.next_region, label, kind, size)
        self.regions[region.id] = region
        self.next_region += 1
        return region

    def region(self, region_id: int) -> Region | None:
        return self.regions.get(region_id)

    # ----------------------------------------------------------------- cells
    def _cell(self, loc, at) -> tuple[int, int]:
        """The cell key of ``loc``: a Location or a (region, offset) pair,
        whose offset is an int or a Value that must resolve concretely; an
        error names ``at``, the access's (file, line)."""
        region, off = (loc.region, loc.offset) if loc.__class__ is Location else loc
        if isinstance(off, int):
            return region, off
        if isinstance(off, Value):
            r = self.values.resolve(off)
            if isinstance(r, Concrete):
                return region, to_int(r)
            labels = self.values.labels_for(r.blockers)
            raise SymbolicAddress(
                f"address offset in region {region} is symbolic at {at[0]}:{at[1]} "
                f"(blocked by: {self.values.blocker_text(labels)})",
                blockers=labels,
            )
        raise SymbolicAddress(f"bad offset {off!r}")

    def load(self, loc, width: int = 4, at=("<memory>", 0)) -> Value:
        """The value in the cell at ``loc`` (a Location or a (region,
        offset) pair); an untouched cell gets a fresh symbol. The (region,
        0) cell of a held local reads its Place. ``width`` is accepted for
        its callers and not read: a cell holds one value, whatever the width
        of the access, until the store keeps bytes."""
        key = loc if loc.__class__ is tuple and loc[1].__class__ is int else self._cell(loc, at)
        v = self.cells.get(key)
        if v is not None:
            return v
        region, off = key
        place = self.held.get(region) if off == 0 else None
        if place is not None:
            v = place.value
            return v if v is not None else self.fresh(place, at)
        v = self.cells[key] = self._symbol(region, off, at)
        return v

    def _symbol(self, region: int, off: int, at) -> Value:
        """The fresh symbol of the untouched cell (region, off)."""
        return self.values.fresh_symbol(
            f"mem:({region},{off})", at, self.taints.get(region) or self.values.blame)

    def store(self, loc, value: Value, at=("<memory>", 0)) -> None:
        """Put ``value`` in the cell at ``loc``, as ``load`` reads it."""
        key = loc if loc.__class__ is tuple and loc[1].__class__ is int else self._cell(loc, at)
        self.cells[key] = value

    # ----------------------------------------------------------- held locals
    def reserve(self) -> int:
        """The next region id, for a held local: no Region is built for it
        until ``spill``."""
        rid = self.next_region
        self.next_region = rid + 1
        return rid

    def fresh(self, place, at) -> Value:
        """The value of the unset held ``place``: the symbol its (region, 0)
        cell would mint, kept on it."""
        v = place.value = self._symbol(place.region, 0, at)
        return v

    def spill(self, place) -> None:
        """Move the held ``place`` into the store: its reserved id gets its
        Region, and its value, if set, is the (region, 0) cell."""
        rid = place.region
        self.regions[rid] = Region(rid, place.name, STACK, self.size_of(place.type))
        if place.value is not None:
            self.cells[rid, 0] = place.value
        place.held, place.value = False, None
        del self.held[rid]

    def release(self, since: int) -> None:
        """Forget the held places of region id ``since`` and up: a returned
        call's or an ended snippet's, which nothing can address."""
        held = self.held
        while held and next(reversed(held)) >= since:
            held.popitem()

    # --------------------------------------------------------------- layouts
    def layout(self, tag: str) -> Layout | None:
        """The layout of ``tag``, from ``layout_source`` on the first call.
        None while the source reads it (a struct that holds itself by value)
        and for a tag with no body and no member used yet."""
        if tag not in self.layouts:
            self.layouts[tag] = None  # before the source runs: cycle guard
            if self.layout_source is not None:
                self.layouts[tag] = self.layout_source(tag)
        return self.layouts[tag]

    def field_offset(self, tag: str, field: str) -> FieldInfo:
        """Member ``field`` of ``tag``; one that no body declares is a
        4-byte int added at the end on its first use."""
        layout = self.layouts.get(tag)
        if layout is None:
            layout = self.layouts[tag] = self.layout(tag) or Layout()
        return layout.fields.get(field) or layout.add(field, INT, 4)

    def size_of(self, t: CType) -> int:
        """Bytes of a ``t``: an array's count of its element's, a struct's
        layout size (its declared width while it has none), else its width
        (8 for a pointer)."""
        count = 1
        while t.kind is ARRAY:
            count *= t.count
            t = t.of
        layout = t.tag and self.layout(t.tag)
        return count * (layout and layout.size or t.width)
