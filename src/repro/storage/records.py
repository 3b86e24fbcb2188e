"""Record codecs: fixed-size serialization of records into pages.

Pages hold fixed-size records; a codec defines the record width (which
fixes ``E``, the number of object descriptor entries per page — Table 1
of the paper) and, for the file-backed backend, the byte encoding.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from itertools import starmap
from typing import Any, Iterable


class RecordCodec(ABC):
    """Serialize/deserialize one fixed-size record."""

    @property
    @abstractmethod
    def record_size(self) -> int:
        """Record width in bytes."""

    @abstractmethod
    def encode(self, record: tuple[Any, ...]) -> bytes:
        """Pack one record into exactly ``record_size`` bytes."""

    @abstractmethod
    def decode(self, data: bytes) -> tuple[Any, ...]:
        """Unpack one record from exactly ``record_size`` bytes."""

    @abstractmethod
    def encode_page(self, records: Iterable[tuple[Any, ...]]) -> bytes:
        """A page's records back to back: ``b"".join(map(encode, records))``."""

    @abstractmethod
    def decode_page(self, data: bytes, count: int) -> list[tuple[Any, ...]]:
        """The first ``count`` records of a page's bytes (the rest is padding)."""

    def records_per_page(self, page_size: int) -> int:
        """``E`` — how many records fit in one page."""
        capacity = page_size // self.record_size
        if capacity < 1:
            raise ValueError(
                f"page size {page_size} cannot hold a {self.record_size}-byte record"
            )
        return capacity


class StructCodec(RecordCodec):
    """A codec driven by a :mod:`struct` format string."""

    def __init__(self, fmt: str) -> None:
        self._struct = struct.Struct(fmt)

    @property
    def record_size(self) -> int:
        return self._struct.size

    def encode(self, record: tuple[Any, ...]) -> bytes:
        return self._struct.pack(*record)

    def decode(self, data: bytes) -> tuple[Any, ...]:
        return self._struct.unpack(data)

    def encode_page(self, records: Iterable[tuple[Any, ...]]) -> bytes:
        return b"".join(starmap(self._struct.pack, records))

    def decode_page(self, data: bytes, count: int) -> list[tuple[Any, ...]]:
        records = list(self._struct.iter_unpack(data[: count * self._struct.size]))
        if len(records) != count:  # a short page, as decode() of a short slice
            raise struct.error(f"page holds {len(records)} records, not {count}")
        return records


class EntityDescriptorCodec(StructCodec):
    """The paper's entity descriptor (section 3.1): "the corner points
    of the MBR, the Hilbert value of the midpoint of the MBR and (a
    pointer to) the data associated with the entity".

    Layout (48 bytes, little-endian):

    ==========  =======  =========================================
    field       type     meaning
    ==========  =======  =========================================
    eid         int64    pointer to the entity's data
    xlo ylo     float64  lower-left MBR corner
    xhi yhi     float64  upper-right MBR corner
    hilbert     uint64   curve key of the MBR center
    ==========  =======  =========================================

    With the default 4 KB page this gives ``E = 85`` descriptors per
    page.
    """

    FIELDS = ("eid", "xlo", "ylo", "xhi", "yhi", "hilbert")

    def __init__(self) -> None:
        super().__init__("<qddddQ")


class CandidatePairCodec(StructCodec):
    """A candidate join pair: the two entity ids (16 bytes).

    Used for join-result files (the paper's ``J``) and PBSM's
    pre-duplicate-elimination candidate list (``C``).
    """

    FIELDS = ("eid_a", "eid_b")

    def __init__(self) -> None:
        super().__init__("<qq")


# Field positions within an entity-descriptor record, shared by the
# partitioners, the plane-sweep module, and the join algorithms.
EID, XLO, YLO, XHI, YHI, HKEY = range(6)
