"""Region-offset memory model.

Every allocation, variable, or opaque pointer base is its own region;
addresses are (region, byte offset) pairs. Loading an untouched cell mints a
fresh symbol (and remembers it, so repeated loads agree). Pointer arithmetic
stays within a region, which isolates the module under interpretation from
absolute-address reasoning.

Struct layouts come from a parsed definition when one exists in the corpus;
otherwise fields are assigned sequentially on first use, which is stable for
a given access order. A ``CType`` is a C type as declared; the size and sign
of every load and store come from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SymbolicAddress
from .values import Concrete, Record, Value, ValueTable, to_int

STACK = "stack"
STATIC = "static"
MMIO = "mmio"
OPAQUE = "opaque"


@dataclass
class Region:
    id: int
    label: str
    kind: str
    size: int | None = None
    display_base: int | None = None  # value id of the rendered base (mmio)


class Location(Record):
    __slots__ = ("region", "offset")

    def __init__(self, region: int, offset):
        self.region = region
        self.offset = offset  # int, or a Value that must resolve concretely on access


class CType(Record):
    """A C type: ``stars`` pointer levels over a ``width``-byte base type
    (struct ``tag``, ``unsigned``, ``boolean`` for ``_Bool``), in an array
    of the evaluated bounds ``dims`` when there are any. ``elem`` is the
    type that ``*`` and ``[]`` reach (None for a scalar or a struct) and
    ``narrow`` the sign a store wraps to (None for an int or wider, a
    pointer, a struct or an array). It is the one type record: a
    declaration, a typedef name, a place, a cast and a pointer value (what
    it points at) each hold one."""

    __slots__ = ("width", "tag", "unsigned", "stars", "dims", "boolean", "elem", "narrow")

    def __init__(self, width: int = 4, tag: str | None = None, unsigned: bool = False,
                 stars: int = 0, dims: tuple = (), boolean: bool = False):
        self.width = width
        self.tag = tag
        self.unsigned = unsigned
        self.stars = stars
        self.dims = dims
        self.boolean = boolean
        self.elem = self.derived(0, dims[1:]) if dims else self.derived(-1) if stars else None
        self.narrow = None if width >= 4 or stars or dims or tag else not unsigned

    def derived(self, stars: int, dims: tuple = ()) -> CType:
        """This base type with ``stars`` more pointer levels, in an array of
        ``dims`` in place of this one's bounds; itself when that is no
        change."""
        if not (stars or dims or self.dims):
            return self
        return CType(self.width, self.tag, self.unsigned, self.stars + stars, dims, self.boolean)


INT = CType()


@dataclass
class FieldInfo:
    offset: int
    width: int                # bytes the field takes
    type: CType | None = None  # None: a ``width``-byte int

    def __post_init__(self):
        if self.type is None:
            self.type = CType(self.width)


class Store:
    def __init__(self, values: ValueTable):
        self.values = values
        values.region_lookup = self.region
        self.regions: dict[int, Region] = {}
        self._next_region = 1
        self.cells: dict[tuple[int, int], int] = {}
        self._layouts: dict[str, dict[str, FieldInfo]] = {}
        self._layout_end: dict[str, int] = {}
        self._layout_probed: set[str] = set()
        self.taints: dict[int, object] = {}  # region id -> MissingCall
        self.on_fresh = None        # callback(symbol Value)
        self.layout_source = None   # callable(tag) -> dict[str, FieldInfo] | None

    # --------------------------------------------------------------- regions
    def alloc_region(self, label: str, kind: str, size=None) -> Region:
        region = Region(self._next_region, label, kind, size)
        self.regions[region.id] = region
        self._next_region += 1
        return region

    def region(self, region_id: int) -> Region | None:
        return self.regions.get(region_id)

    # ----------------------------------------------------------------- cells
    def _offset_of(self, loc: Location) -> int:
        off = loc.offset
        if isinstance(off, int):
            return off
        if isinstance(off, Value):
            r = self.values.resolve(off)
            if isinstance(r, Concrete):
                return to_int(r)
            labels = self.values.labels_for(r.blockers)
            raise SymbolicAddress(
                f"address offset in region {loc.region} is symbolic "
                f"(blocked by: {self.values.blocker_text(labels)})",
                blockers=labels,
            )
        raise SymbolicAddress(f"bad offset {off!r}")

    def load(self, loc: Location, width: int = 4, at=("<memory>", 0)) -> Value:
        off = self._offset_of(loc)
        key = (loc.region, off)
        vid = self.cells.get(key)
        if vid is not None:
            return self.values.get(vid)
        sym = self.values.fresh_symbol(f"mem:({loc.region},{off})", at)
        taint = self.taints.get(loc.region)
        if taint is not None:
            self.values.missing_calls[sym.id] = taint
        elif self.on_fresh is not None:
            self.on_fresh(sym)
        self.cells[key] = sym.id
        return sym

    def store(self, loc: Location, value: Value) -> None:
        off = self._offset_of(loc)
        self.cells[(loc.region, off)] = value.id

    # --------------------------------------------------------------- layouts
    def _probe(self, tag: str) -> None:
        if tag in self._layouts or tag in self._layout_probed:
            return
        self._layout_probed.add(tag)  # before the source runs: cycle guard
        if self.layout_source is not None:
            parsed = self.layout_source(tag)
            if parsed:
                self.install_layout(tag, parsed)

    def field_offset(self, tag: str, field: str, width_hint: int = 4) -> FieldInfo:
        self._probe(tag)
        layout = self._layouts.setdefault(tag, {})
        self._layout_end.setdefault(tag, 0)
        info = layout.get(field)
        if info is None:
            # First use in a synthetic (or incomplete) layout: next free slot.
            offset = self._layout_end[tag]
            info = FieldInfo(offset, width_hint)
            layout[field] = info
            self._layout_end[tag] = offset + width_hint
        return info

    def install_layout(self, tag: str, layout: dict[str, FieldInfo]):
        self._layouts[tag] = dict(layout)
        self._layout_end[tag] = max(
            (f.offset + f.width for f in layout.values()), default=0
        )
        self._layout_probed.add(tag)

    def size_of(self, t: CType) -> int:
        """Bytes of a ``t``: 8 for a pointer, a struct's layout size (its
        declared width while it has none), times every array bound."""
        size = 8 if t.stars else (self.ensure_size(t.tag) or t.width) if t.tag else t.width
        for n in t.dims:
            size *= n
        return size

    def ensure_size(self, tag: str) -> int | None:
        """Total byte size of a tag's layout, probing the corpus if needed."""
        self._probe(tag)
        return self._layout_end.get(tag)
