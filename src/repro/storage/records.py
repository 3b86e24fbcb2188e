"""Record layouts: a page is a read-only NumPy array of one packed
little-endian structured dtype, at most ``E`` rows (the record width
fixes ``E``, Table 1 of the paper).  Its bytes are ``tobytes()`` and
``np.frombuffer`` decodes them: the bytes of the :mod:`struct` formats
``<qddddQ`` and ``<qq`` back to back, which older durable stores hold.
"""

from __future__ import annotations

import struct
from itertools import starmap
from typing import Any, Iterable, Sequence

import numpy as np

DESCRIPTOR = np.dtype(
    [("eid", "<i8"), ("xlo", "<f8"), ("ylo", "<f8"), ("xhi", "<f8"), ("yhi", "<f8"),
     ("hkey", "<i8")]
)
"""The paper's entity descriptor (section 3.1): "the corner points of
the MBR, the Hilbert value of the midpoint of the MBR and (a pointer to)
the data associated with the entity" — 48 bytes, so the default 4 KB
page holds ``E = 85`` of them.  Curve keys are at most 62 bits, so the
signed ``hkey`` has the bytes of the unsigned field it replaced."""

PAIR = np.dtype([("a", "<i8"), ("b", "<i8")])
"""A candidate join pair, the two entity ids (16 bytes): join-result
files (the paper's ``J``) and PBSM's pre-duplicate-elimination
candidate list (``C``)."""

# Field positions within a descriptor row's ``tolist()`` tuple.
EID, XLO, YLO, XHI, YHI, HKEY = range(6)

_STRUCT_CODES = {"i8": "q", "f8": "d", "i4": "i"}  # the field types in use


class RecordCodec:
    """One fixed-size record layout: a packed little-endian structured
    dtype, and the :mod:`struct` format of the same bytes for one
    record at a time."""

    def __init__(self, dtype: np.dtype | str) -> None:
        self.dtype = np.dtype(dtype)
        fields = (self.dtype.fields[name][0] for name in self.dtype.names)
        self._struct = struct.Struct(
            "<" + "".join(_STRUCT_CODES[f"{field.kind}{field.itemsize}"] for field in fields)
        )

    @property
    def record_size(self) -> int:
        """Record width in bytes."""
        return self.dtype.itemsize

    def page(self, records: np.ndarray | Iterable[tuple[Any, ...]]) -> np.ndarray:
        """``records`` as a read-only array of this layout: a read-only
        array of it as it is, anything else (a writeable array, tuples)
        copied."""
        if isinstance(records, np.ndarray) and records.dtype == self.dtype:
            # A structured copy goes field by field: bytes are ~7x faster.
            return records if not records.flags.writeable else concat_pages([records])
        if not isinstance(records, (np.ndarray, list)):
            records = list(records)
        return _read_only(np.array(records, dtype=self.dtype))

    def encode(self, record: tuple[Any, ...]) -> bytes:
        """Pack one record into exactly ``record_size`` bytes."""
        return self._struct.pack(*record)

    def decode(self, data: bytes) -> tuple[Any, ...]:
        """Unpack one record from exactly ``record_size`` bytes."""
        return self._struct.unpack(data)

    def encode_page(self, records: np.ndarray | Sequence[tuple[Any, ...]]) -> bytes:
        """A page's records back to back (tuples packed in one C loop)."""
        if isinstance(records, np.ndarray):
            return self.page(records).tobytes()
        return b"".join(starmap(self._struct.pack, records))

    def decode_page(self, data: bytes, count: int) -> np.ndarray:
        """The first ``count`` records of a page's bytes (the rest is
        padding), read-only; ``ValueError`` if fewer are there."""
        return np.frombuffer(data, self.dtype, count)

    def records_per_page(self, page_size: int) -> int:
        """``E`` — how many records fit in one page."""
        capacity = page_size // self.record_size
        if capacity < 1:
            raise ValueError(
                f"page size {page_size} cannot hold a {self.record_size}-byte record"
            )
        return capacity


class EntityDescriptorCodec(RecordCodec):
    """Pages of :data:`DESCRIPTOR` rows."""

    def __init__(self) -> None:
        super().__init__(DESCRIPTOR)


class CandidatePairCodec(RecordCodec):
    """Pages of :data:`PAIR` rows."""

    def __init__(self) -> None:
        super().__init__(PAIR)


def concat_pages(pages: Sequence[np.ndarray], dtype: np.dtype | None = None) -> np.ndarray:
    """The rows of ``pages`` (of ``dtype``, needed only when there may
    be none) in order, as one new read-only array: their bytes joined.
    A structured ``concatenate`` promotes every field, several times
    the cost."""
    return np.frombuffer(b"".join([page.tobytes() for page in pages]), dtype or pages[0].dtype)


def take(rows: np.ndarray, index: np.ndarray | list[int]) -> np.ndarray:
    """``rows[index]`` (positions or a boolean mask) as a new read-only
    array, gathered as raw ``void`` rows: NumPy copies a structured
    array field by field, about ten times slower."""
    return _read_only(rows.view(_raw(rows))[index].view(rows.dtype))


def splice(rows: np.ndarray, at: np.ndarray, inserted: np.ndarray) -> np.ndarray:
    """``rows`` with each ``inserted[i]`` put before ``rows[at[i]]`` (``at``
    sorted), as one new read-only array, moved as raw rows like :func:`take`."""
    raw = _raw(rows)
    return _read_only(np.insert(rows.view(raw), at, inserted.view(raw)).view(rows.dtype))


def copy_rows(rows: np.ndarray) -> np.ndarray:
    """A writeable copy of ``rows``, copied as raw ``void`` rows too."""
    return rows.view(_raw(rows)).copy().view(rows.dtype)


def _raw(rows: np.ndarray) -> np.dtype:
    return np.dtype((np.void, rows.dtype.itemsize))


def corners(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``(xlo, ylo, xhi, yhi)`` fields of descriptor rows, as views."""
    return rows["xlo"], rows["ylo"], rows["xhi"], rows["yhi"]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array
