"""On-disk binary columnar storage, read back through ``mmap``.

The third dataset layout (after ``row`` and ``columnar``): a dataset is
committed to a fixed little-endian binary file at creation time and
reopened read-only via ``mmap``, so every process scanning it shares the
same page-cache pages with **zero per-worker deserialization** — the
prerequisite for the shared-memory multiprocess scan
(:mod:`repro.scan.proc`). Stdlib only: ``struct`` / ``array`` /
``memoryview`` / ``mmap``.

File format ``RCS1`` (Repro Column Store, version 1), all integers
little-endian::

    header (24 bytes, offset 0)
        magic   4s   b"RCS1"
        version u8   1
        flags   u8   reserved, 0
        pad     u16  reserved, 0
        footer_offset u64   (patched when the writer closes)
        footer_length u64

    partition regions (8-byte aligned, one per partition, back to back)
        column offset table: num_columns * u64
            byte offset of each column block, relative to region start
        column blocks, in schema order:
            flags   u8   bit 0: HAS_NULLS          (+7 pad bytes)
            [null mask: row_count bytes, 1 = NULL, padded to 8]
            data:
                type "i"/"f":  row_count * 8 bytes (int64 / float64)
                type "b":      row_count bytes, padded to 8
                type "s":      (row_count + 1) * u64 end-exclusive
                               offsets into the blob, then the UTF-8
                               blob, padded to 8

    footer
        num_columns u16
        per column: name_length u16, name UTF-8, type code u8
        num_partitions u32
        per partition: row_start u64, row_count u64,
                       byte_offset u64, byte_length u64
        meta_length u32, meta JSON UTF-8   (dataset-level metadata)
        total_rows  u64
        [STATS section, version 2 only]
            bloom_bits   u32   (bits per bloom filter; multiple of 8)
            bloom_hashes u8    (probe count per key)
            per partition, per column in schema order:
                flags      u8   bit 0 HAS_MINMAX, bit 1 HAS_BLOOM
                row_count  u64
                null_count u64
                [min, max when HAS_MINMAX]
                    type "i": <q each  · "f": <d each · "b": u8 each
                    type "s": u32 UTF-8 byte length + bytes, each
                [bloom_bits / 8 filter bytes when HAS_BLOOM]

Version 2 is a minor revision: the only change is the optional STATS
section appended past ``total_rows``, so a version-2 reader opens
version-1 files unchanged (they simply carry no stats). The writer
emits version 1 when stats are disabled — byte-identical files to the
original format.

The writer streams one partition at a time (memory stays bounded by a
single partition no matter how large the dataset grows — the 100M-row
path); the reader eagerly touches only the header and footer, handing
out partitions as :class:`~repro.scan.columnar.ColumnStore` views whose
columns are ``memoryview`` casts (numeric and bool columns without
NULLs) or per-row decoders directly over the mapped file (strings, and
columns with a NULL mask).

Row reads (``iter_rows``, ``row_at``, any ``store.columns[name]``
lookup) decode value by value and copy nothing else. Scans of a string
column go through :meth:`StringColumn.decoded`, which trades decoding
rows a scan may never reach for reusing rows that scans read again:
the first scan of a row range reads it value by value, like a row read;
a later scan that reaches rows an earlier scan already read decodes
them into one Python list, window by window, and every later scan of
that range indexes the list. The list costs 8 bytes per row and keeps
one string per distinct value (equal strings share one object); a
column whose list would hold more than ``max(16, rows / 16)`` distinct
strings stops decoding and keeps nothing. NULL-bearing numeric columns
are always read value by value: decoding them would keep a new float or
int object per row, about 32 bytes.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import MmapStoreError
from repro.scan.columnar import ColumnStore

MAGIC = b"RCS1"
#: Newest format revision this build writes (and the highest it reads).
VERSION = 2
#: Oldest format revision this build still reads.
MIN_VERSION = 1
#: Revision that introduced the footer STATS section.
STATS_VERSION = 2

_HEADER = struct.Struct("<4sBBHQQ")

TYPE_INT = "i"
TYPE_FLOAT = "f"
TYPE_BOOL = "b"
TYPE_STRING = "s"
COLUMN_TYPES = (TYPE_INT, TYPE_FLOAT, TYPE_BOOL, TYPE_STRING)

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: memoryview.cast uses native byte order; the file is little-endian, so
#: big-endian hosts take the (slower) struct-based per-value fallback.
_NATIVE_LE = sys.byteorder == "little"


def _pad8(n: int) -> int:
    """Bytes of padding that align ``n`` up to the next multiple of 8."""
    return (-n) % 8


def column_types_for_schema(schema) -> tuple[str, ...]:
    """Map a :class:`~repro.data.schema.Schema` to RCS column type codes."""
    mapping = {int: TYPE_INT, float: TYPE_FLOAT, bool: TYPE_BOOL, str: TYPE_STRING}
    codes = []
    for field in schema.fields:
        code = mapping.get(field.py_type)
        if code is None:
            raise MmapStoreError(
                f"column {field.name!r}: type {field.py_type.__name__} is not "
                f"storable in an mmap dataset; supported: int, float, bool, str"
            )
        codes.append(code)
    return tuple(codes)


def infer_column_types(names: Sequence[str], columns: dict) -> tuple[str, ...]:
    """Infer a type code per column from its first non-NULL value.

    All-NULL columns default to strings (any type round-trips NULL).
    """
    codes = []
    for name in names:
        code = TYPE_STRING
        for value in columns[name]:
            if value is None:
                continue
            if isinstance(value, bool):
                code = TYPE_BOOL
            elif isinstance(value, int):
                code = TYPE_INT
            elif isinstance(value, float):
                code = TYPE_FLOAT
            elif isinstance(value, str):
                code = TYPE_STRING
            else:
                raise MmapStoreError(
                    f"column {name!r}: cannot store a {type(value).__name__} "
                    f"value ({value!r}) in an mmap dataset"
                )
            break
        codes.append(code)
    return tuple(codes)


# ---------------------------------------------------------------------------
# Split references: the split <-> file-range mapping handed to workers
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MmapSplitRef:
    """Where one partition lives inside an mmap dataset file.

    Picklable by design: this tuple of path + ranges is everything a map
    worker **process** receives about its input — it reopens the file
    itself (sharing page-cache pages) instead of being handed rows.
    """

    path: str
    partition: int
    row_start: int
    row_count: int
    byte_offset: int
    byte_length: int


# ---------------------------------------------------------------------------
# Split statistics: zone maps + bloom filters (the footer STATS section)
# ---------------------------------------------------------------------------
#: Default bloom filter width; 2048 bits keeps false positives under ~2%
#: for the low-cardinality columns the filter is meant for.
DEFAULT_BLOOM_BITS = 2048
#: Probes per key (fixed; recorded in the file so readers never guess).
BLOOM_HASHES = 4
#: Zone-map min/max for strings is dropped past this encoded length; a
#: truncated bound would be unsound, and long strings rarely prune.
STATS_MAX_STRING_BYTES = 256

_STATS_HAS_MINMAX = 1
_STATS_HAS_BLOOM = 2


def _bloom_key(value) -> bytes | None:
    """Canonical hash input for a bloom-eligible value, or None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        if not _INT64_MIN <= value <= _INT64_MAX:
            return None
        return struct.pack("<q", value)
    if isinstance(value, str):
        return value.encode("utf-8")
    return None


def _bloom_positions(key: bytes, bits: int, hashes: int) -> Iterator[int]:
    """Deterministic double-hashing probe sequence (md5-derived, so the
    filter bytes are identical across processes and Python runs)."""
    digest = hashlib.md5(key).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:16], "little") | 1
    for i in range(hashes):
        yield (h1 + i * h2) % bits


def bloom_probe(value, bits: int, hashes: int) -> tuple[tuple[int, int], ...] | None:
    """``value``'s probe into a ``bits``-wide, ``hashes``-probe filter.

    ``(byte index, bit mask)`` pairs, or None when the value has no bloom
    key. Every filter of that shape shares the probe, so a caller testing
    one literal against many partitions hashes it once.
    """
    key = _bloom_key(value)
    if key is None:
        return None
    return tuple(
        (position >> 3, 1 << (position & 7))
        for position in _bloom_positions(key, bits, hashes)
    )


@dataclass(frozen=True)
class BloomFilter:
    """A fixed-size bitset over a column's non-NULL values.

    ``might_contain`` has no false negatives: False means the value is
    provably absent from the partition.
    """

    bits: int
    hashes: int
    data: bytes

    def might_contain(self, value) -> bool:
        return self.might_contain_probe(bloom_probe(value, self.bits, self.hashes))

    def might_contain_probe(self, probe: tuple[tuple[int, int], ...] | None) -> bool:
        """:meth:`might_contain` for a value's :func:`bloom_probe` of this
        filter's ``(bits, hashes)``."""
        if probe is None:
            return True  # un-hashable value: never claim absence
        data = self.data
        for index, mask in probe:
            if not data[index] & mask:
                return False
        return True


@dataclass(frozen=True)
class ColumnStats:
    """Zone map (+ optional bloom) for one column of one partition."""

    row_count: int
    null_count: int
    has_minmax: bool
    min_value: object = None
    max_value: object = None
    bloom: BloomFilter | None = None

    @property
    def non_null_count(self) -> int:
        return self.row_count - self.null_count


def collect_column_stats(
    code: str,
    values: Sequence,
    *,
    bloom_bits: int = DEFAULT_BLOOM_BITS,
    bloom_hashes: int = BLOOM_HASHES,
) -> ColumnStats:
    """One streaming pass over a partition column's values.

    Zone-map soundness rules: the min/max is dropped entirely when the
    column is all-NULL, contains a float NaN (unordered against every
    bound), or its string bounds exceed :data:`STATS_MAX_STRING_BYTES`.
    The bloom filter only covers int/str columns and is dropped when the
    observed distinct count exceeds ``bloom_bits / 8`` — past that load
    factor the false-positive rate makes it dead weight in the footer.
    """
    row_count = 0
    null_count = 0
    low = high = None
    minmax_ok = True
    bloom_data: bytearray | None = None
    distinct: set | None = None
    if code in (TYPE_INT, TYPE_STRING) and bloom_bits > 0:
        bloom_data = bytearray(bloom_bits // 8)
        distinct = set()
    distinct_cap = max(8, bloom_bits // 8)

    for value in values:
        row_count += 1
        if value is None:
            null_count += 1
            continue
        if isinstance(value, float) and value != value:  # NaN poisons ordering
            minmax_ok = False
            continue
        if minmax_ok:
            if low is None:
                low = high = value
            else:
                try:
                    if value < low:
                        low = value
                    elif value > high:
                        high = value
                except TypeError:
                    minmax_ok = False
        if bloom_data is not None:
            key = _bloom_key(value)
            if key is None:
                bloom_data = distinct = None
                continue
            if key not in distinct:
                distinct.add(key)
                if len(distinct) > distinct_cap:
                    bloom_data = distinct = None
                    continue
                for position in _bloom_positions(key, bloom_bits, bloom_hashes):
                    bloom_data[position >> 3] |= 1 << (position & 7)

    if low is None:
        minmax_ok = False
    if minmax_ok and code == TYPE_STRING:
        if (
            len(str(low).encode("utf-8")) > STATS_MAX_STRING_BYTES
            or len(str(high).encode("utf-8")) > STATS_MAX_STRING_BYTES
        ):
            minmax_ok = False
    bloom = (
        BloomFilter(bloom_bits, bloom_hashes, bytes(bloom_data))
        if bloom_data is not None
        else None
    )
    return ColumnStats(
        row_count=row_count,
        null_count=null_count,
        has_minmax=minmax_ok,
        min_value=low if minmax_ok else None,
        max_value=high if minmax_ok else None,
        bloom=bloom,
    )


def _encode_stats_value(code: str, value) -> bytes:
    if code == TYPE_INT:
        return struct.pack("<q", value)
    if code == TYPE_FLOAT:
        return struct.pack("<d", float(value))
    if code == TYPE_BOOL:
        return struct.pack("<B", 1 if value else 0)
    encoded = str(value).encode("utf-8")
    return struct.pack("<I", len(encoded)) + encoded


def _decode_stats_value(code: str, buf: bytes, position: int):
    if code == TYPE_INT:
        return struct.unpack_from("<q", buf, position)[0], position + 8
    if code == TYPE_FLOAT:
        return struct.unpack_from("<d", buf, position)[0], position + 8
    if code == TYPE_BOOL:
        return bool(buf[position]), position + 1
    (length,) = struct.unpack_from("<I", buf, position)
    position += 4
    return buf[position : position + length].decode("utf-8"), position + length


def _encode_stats_section(
    partition_stats: list[list[ColumnStats]],
    types: Sequence[str],
    bloom_bits: int,
    bloom_hashes: int,
) -> bytes:
    pieces = [struct.pack("<IB", bloom_bits, bloom_hashes)]
    for column_stats in partition_stats:
        for code, stats in zip(types, column_stats):
            flags = 0
            if stats.has_minmax:
                flags |= _STATS_HAS_MINMAX
            if stats.bloom is not None:
                flags |= _STATS_HAS_BLOOM
            pieces.append(
                struct.pack("<BQQ", flags, stats.row_count, stats.null_count)
            )
            if stats.has_minmax:
                pieces.append(_encode_stats_value(code, stats.min_value))
                pieces.append(_encode_stats_value(code, stats.max_value))
            if stats.bloom is not None:
                pieces.append(stats.bloom.data)
    return b"".join(pieces)


def _decode_stats_section(
    buf: bytes, position: int, types: Sequence[str], num_partitions: int
) -> tuple[int, int, list[list[ColumnStats]]]:
    bloom_bits, bloom_hashes = struct.unpack_from("<IB", buf, position)
    position += 5
    partition_stats: list[list[ColumnStats]] = []
    for _ in range(num_partitions):
        column_stats: list[ColumnStats] = []
        for code in types:
            flags, row_count, null_count = struct.unpack_from("<BQQ", buf, position)
            position += 17
            low = high = None
            has_minmax = bool(flags & _STATS_HAS_MINMAX)
            if has_minmax:
                low, position = _decode_stats_value(code, buf, position)
                high, position = _decode_stats_value(code, buf, position)
            bloom = None
            if flags & _STATS_HAS_BLOOM:
                data = bytes(buf[position : position + bloom_bits // 8])
                if len(data) != bloom_bits // 8:
                    raise struct.error("bloom filter extends past footer end")
                position += bloom_bits // 8
                bloom = BloomFilter(bloom_bits, bloom_hashes, data)
            column_stats.append(
                ColumnStats(
                    row_count=row_count,
                    null_count=null_count,
                    has_minmax=has_minmax,
                    min_value=low,
                    max_value=high,
                    bloom=bloom,
                )
            )
        partition_stats.append(column_stats)
    return bloom_bits, bloom_hashes, partition_stats


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------
def _type_error(name: str, index: int, expected: str, value: object) -> MmapStoreError:
    return MmapStoreError(
        f"column {name!r}, row {index}: expected {expected} or NULL, "
        f"got {type(value).__name__} ({value!r})"
    )


def _encode_column(name: str, code: str, values: Sequence, row_count: int) -> bytes:
    mask = bytearray(row_count)
    has_nulls = False
    pieces: list[bytes] = []

    if code == TYPE_INT:
        data = array("q")
        for i, value in enumerate(values):
            if value is None:
                mask[i] = 1
                data.append(0)
            elif isinstance(value, int) and not isinstance(value, bool):
                if not _INT64_MIN <= value <= _INT64_MAX:
                    raise MmapStoreError(
                        f"column {name!r}, row {i}: integer {value} does not "
                        f"fit the fixed 64-bit column width"
                    )
                data.append(value)
            else:
                raise _type_error(name, i, "int", value)
        if not _NATIVE_LE:
            data.byteswap()
        payload = data.tobytes()
    elif code == TYPE_FLOAT:
        data = array("d")
        for i, value in enumerate(values):
            if value is None:
                mask[i] = 1
                data.append(0.0)
            elif isinstance(value, float):
                data.append(value)
            else:
                raise _type_error(name, i, "float", value)
        if not _NATIVE_LE:
            data.byteswap()
        payload = data.tobytes()
    elif code == TYPE_BOOL:
        raw = bytearray(row_count)
        for i, value in enumerate(values):
            if value is None:
                mask[i] = 1
            elif isinstance(value, bool):
                raw[i] = 1 if value else 0
            else:
                raise _type_error(name, i, "bool", value)
        payload = bytes(raw) + b"\0" * _pad8(row_count)
    elif code == TYPE_STRING:
        offsets = array("Q")
        blob = bytearray()
        for i, value in enumerate(values):
            if value is None:
                mask[i] = 1
            elif isinstance(value, str):
                blob.extend(value.encode("utf-8"))
            else:
                raise _type_error(name, i, "str", value)
            offsets.append(len(blob))
        offsets.insert(0, 0)  # row_count + 1 end-exclusive entries
        if not _NATIVE_LE:
            offsets.byteswap()
        payload = offsets.tobytes() + bytes(blob) + b"\0" * _pad8(len(blob))
    else:
        raise MmapStoreError(
            f"column {name!r}: unknown type code {code!r}; one of {COLUMN_TYPES}"
        )

    has_nulls = any(mask)
    pieces.append(struct.pack("<B7x", 1 if has_nulls else 0))
    if has_nulls:
        pieces.append(bytes(mask) + b"\0" * _pad8(row_count))
    pieces.append(payload)
    return b"".join(pieces)


def encode_partition(
    names: Sequence[str], types: Sequence[str], columns: dict, row_count: int
) -> bytes:
    """One partition region (column offset table + column blocks)."""
    blocks = [
        _encode_column(name, code, columns[name], row_count)
        for name, code in zip(names, types)
    ]
    table_len = 8 * len(names)
    offsets = []
    position = table_len
    for block in blocks:
        offsets.append(position)
        position += len(block)
    table = struct.pack(f"<{len(names)}Q", *offsets)
    return b"".join([table, *blocks])


# ---------------------------------------------------------------------------
# Lazy column views (decode on access; string lists for re-scanned rows)
# ---------------------------------------------------------------------------
class _StructColumn:
    """Per-value struct decoding for hosts whose native byte order is not
    little-endian (memoryview.cast would misread the fixed LE layout)."""

    __slots__ = ("_buf", "_struct", "_count")

    def __init__(self, buf: memoryview, fmt: str, count: int) -> None:
        self._buf = buf
        self._struct = struct.Struct(fmt)
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):  # a list, where memoryview gives a view
            return [self[i] for i in range(*index.indices(self._count))]
        if index < 0 or index >= self._count:
            raise IndexError(index)
        return self._struct.unpack_from(self._buf, index * self._struct.size)[0]

    def __iter__(self) -> Iterator:
        unpack = self._struct.unpack_from
        size = self._struct.size
        for index in range(self._count):
            yield unpack(self._buf, index * size)[0]


class NullableColumn:
    """A numeric/bool column with a NULL mask: mask hit -> ``None``."""

    __slots__ = ("_values", "_mask")

    def __init__(self, values, mask: memoryview) -> None:
        self._values = values
        self._mask = mask

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index: int):
        if self._mask[index]:
            return None
        return self._values[index]

    def __iter__(self) -> Iterator:
        for flag, value in zip(self._mask, self._values):
            yield None if flag else value


#: A decoded string list may hold this many distinct strings, or one per
#: this many rows if that is more; past that, the column stops decoding.
_SHARING = 16


class StringColumn:
    """Offset-indexed UTF-8 strings decoded per access (zero-copy blob);
    scans read re-scanned rows from one decoded list (:meth:`decoded`)."""

    __slots__ = ("_offsets", "_blob", "_mask", "_decoded", "_shared", "_reached")

    def __init__(self, offsets, blob: memoryview, mask: memoryview | None) -> None:
        self._offsets = offsets
        self._blob = blob
        self._mask = mask
        self._decoded: list | None = []  # None: too many distinct strings
        self._shared: dict[str, str] = {}
        self._reached = 0  # rows [0, _reached) were read by some scan

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index: int):
        if index < 0 or index >= len(self._offsets) - 1:
            raise IndexError(index)
        if self._mask is not None and self._mask[index]:
            return None
        return str(self._blob[self._offsets[index] : self._offsets[index + 1]], "utf-8")

    def __iter__(self) -> Iterator:
        for index in range(len(self)):
            yield self[index]

    def decoded(self, stop: int) -> Sequence:
        """The column as a scan of rows ``[0, stop)`` should index it.

        That is the decoded list (NULL -> ``None``, equal strings share
        one object) once it covers ``stop`` rows. Rows no earlier scan
        reached are read from the column itself, value by value, so a
        scan that stops early decodes nothing it did not read. Rows an
        earlier scan reached are decoded onto the list's end, up to
        ``stop`` or twice the list's length, whichever is more, but never
        past those rows. The list is replaced, never grown in place: two
        threads may decode the same rows, but neither sees a partial
        list. Once the list would hold more than ``max(16, rows / 16)``
        distinct strings it is dropped, and the column is read value by
        value from then on.
        """
        values = self._decoded
        if values is None:
            return self
        if stop <= len(values):
            return values
        if stop > self._reached:
            self._reached = stop
            return self
        start = len(values)
        end = min(self._reached, max(stop, 2 * start))
        bounds = self._offsets[start : end + 1]
        blob = bytes(self._blob[: bounds[-1]])
        shared = self._shared
        share = shared.setdefault
        window = [share(s := blob[a:b].decode(), s) for a, b in zip(bounds, bounds[1:])]
        if len(shared) > max(_SHARING, end // _SHARING):
            self._decoded = None
            self._shared = {}
            return self
        if self._mask is not None:
            mask = self._mask[start:end]
            window = [None if flag else v for flag, v in zip(mask, window)]
        values = values + window
        self._decoded = values
        return values


def _cast(buf: memoryview, fmt: str, count: int):
    if _NATIVE_LE:
        return buf.cast(fmt)
    return _StructColumn(buf, "<" + ("q" if fmt == "q" else "d"), count)


def _decode_column(region: memoryview, start: int, code: str, row_count: int):
    flags = region[start]
    position = start + 8
    mask: memoryview | None = None
    if flags & 1:
        mask = region[position : position + row_count]
        position += row_count + _pad8(row_count)
    if code in (TYPE_INT, TYPE_FLOAT):
        data = region[position : position + 8 * row_count]
        values = _cast(data, "q" if code == TYPE_INT else "d", row_count)
        return NullableColumn(values, mask) if mask is not None else values
    if code == TYPE_BOOL:
        data = region[position : position + row_count]
        values = data.cast("?")
        return NullableColumn(values, mask) if mask is not None else values
    if code == TYPE_STRING:
        raw = region[position : position + 8 * (row_count + 1)]
        if _NATIVE_LE:
            offsets = raw.cast("Q")
        else:
            offsets = _StructColumn(raw, "<Q", row_count + 1)
        position += 8 * (row_count + 1)
        blob = region[position : position + offsets[row_count]]
        return StringColumn(offsets, blob, mask)
    raise MmapStoreError(f"unknown column type code {code!r}; one of {COLUMN_TYPES}")


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------
class MmapDatasetWriter:
    """Streams partitions into an RCS1 file, one region at a time.

    Peak memory is one encoded partition regardless of dataset size;
    the footer (schema, partition directory, metadata) is written when
    the writer closes and the header's footer pointer is patched in
    place.
    """

    def __init__(
        self,
        path: str | Path,
        names: Sequence[str],
        types: Sequence[str],
        *,
        meta: dict | None = None,
        stats: bool = False,
        bloom_bits: int = DEFAULT_BLOOM_BITS,
    ) -> None:
        if not names:
            raise MmapStoreError("an mmap dataset needs at least one column")
        if len(names) != len(set(names)):
            raise MmapStoreError(f"duplicate column names: {list(names)}")
        if len(types) != len(names):
            raise MmapStoreError(
                f"{len(names)} column names but {len(types)} type codes"
            )
        for name, code in zip(names, types):
            if code not in COLUMN_TYPES:
                raise MmapStoreError(
                    f"column {name!r}: unknown type code {code!r}; "
                    f"one of {COLUMN_TYPES}"
                )
        if stats and (bloom_bits < 0 or bloom_bits % 8 != 0):
            raise MmapStoreError(
                f"bloom_bits must be a non-negative multiple of 8, got {bloom_bits}"
            )
        self.path = str(path)
        self.names = tuple(names)
        self.types = tuple(types)
        self.meta = dict(meta or {})
        # Stats-free files keep the original version-1 byte layout; the
        # minor-version bump only buys the appended STATS section.
        self.version = STATS_VERSION if stats else MIN_VERSION
        self.bloom_bits = bloom_bits if stats else 0
        self._stats: list[list[ColumnStats]] | None = [] if stats else None
        self._entries: list[tuple[int, int, int, int]] = []
        self._row_start = 0
        self._closed = False
        self._file = open(self.path, "wb")
        self._file.write(_HEADER.pack(MAGIC, self.version, 0, 0, 0, 0))
        self._offset = _HEADER.size

    def write_partition(self, columns: dict, row_count: int) -> MmapSplitRef:
        """Encode and append one partition's columns; returns its ref."""
        if self._closed:
            raise MmapStoreError(f"writer for {self.path} is closed")
        missing = [name for name in self.names if name not in columns]
        if missing:
            raise MmapStoreError(
                f"partition {len(self._entries)} is missing columns {missing}"
            )
        region = encode_partition(self.names, self.types, columns, row_count)
        if self._stats is not None:
            self._stats.append(
                [
                    collect_column_stats(
                        code, columns[name], bloom_bits=self.bloom_bits
                    )
                    for name, code in zip(self.names, self.types)
                ]
            )
        entry = (self._row_start, row_count, self._offset, len(region))
        self._file.write(region)
        self._entries.append(entry)
        self._offset += len(region)
        self._row_start += row_count
        return MmapSplitRef(self.path, len(self._entries) - 1, *entry)

    def write_rows(self, rows: Iterable[dict]) -> MmapSplitRef:
        """Convenience: transpose row dicts and write them as one partition."""
        store = ColumnStore.from_rows(rows)
        columns = {name: store.columns.get(name, []) for name in self.names}
        if store.num_rows and set(store.names) != set(self.names):
            raise MmapStoreError(
                f"rows carry columns {sorted(store.names)}, "
                f"writer expects {sorted(self.names)}"
            )
        return self.write_partition(columns, store.num_rows)

    def close(self) -> list[MmapSplitRef]:
        """Write footer, patch the header pointer, and close the file."""
        if self._closed:
            raise MmapStoreError(f"writer for {self.path} is already closed")
        footer = self._encode_footer()
        self._file.write(footer)
        self._file.seek(0)
        self._file.write(
            _HEADER.pack(MAGIC, self.version, 0, 0, self._offset, len(footer))
        )
        self._file.close()
        self._closed = True
        return [
            MmapSplitRef(self.path, index, *entry)
            for index, entry in enumerate(self._entries)
        ]

    def _encode_footer(self) -> bytes:
        pieces = [struct.pack("<H", len(self.names))]
        for name, code in zip(self.names, self.types):
            encoded = name.encode("utf-8")
            pieces.append(struct.pack("<H", len(encoded)))
            pieces.append(encoded)
            pieces.append(code.encode("ascii"))
        pieces.append(struct.pack("<I", len(self._entries)))
        for entry in self._entries:
            pieces.append(struct.pack("<4Q", *entry))
        meta = json.dumps(self.meta, sort_keys=True).encode("utf-8")
        pieces.append(struct.pack("<I", len(meta)))
        pieces.append(meta)
        pieces.append(struct.pack("<Q", self._row_start))
        if self._stats is not None:
            pieces.append(
                _encode_stats_section(
                    self._stats, self.types, self.bloom_bits, BLOOM_HASHES
                )
            )
        return b"".join(pieces)

    def __enter__(self) -> "MmapDatasetWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            if exc_type is None:
                self.close()
            else:
                self._file.close()
                self._closed = True


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------
class MmapDataset:
    """Read-only view over an RCS1 file (or in-memory buffer).

    Opening parses only the 24-byte header and the footer
    (``eager_bytes`` accounts for exactly that); partition stores are
    built lazily as zero-copy views, so no column data leaves the page
    cache until a scan touches it.
    """

    def __init__(
        self, path: str | Path | None = None, *, buffer: bytes | None = None
    ) -> None:
        if (path is None) == (buffer is None):
            raise MmapStoreError("pass exactly one of path= or buffer=")
        self.path = str(path) if path is not None else None
        self._mmap: mmap.mmap | None = None
        if path is not None:
            with open(path, "rb") as handle:
                try:
                    self._mmap = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
                except ValueError as exc:  # empty file cannot be mapped
                    raise MmapStoreError(f"{path}: not an RCS1 file: {exc}") from None
            self._buf = memoryview(self._mmap)
        else:
            self._buf = memoryview(buffer)
        self._stores: dict[int, ColumnStore] = {}
        self._stats_maps: dict[int, Mapping[str, ColumnStats]] = {}
        self._parse()

    # -- format parsing -------------------------------------------------
    def _parse(self) -> None:
        where = self.path or "<buffer>"
        if len(self._buf) < _HEADER.size:
            raise MmapStoreError(
                f"{where}: truncated: {len(self._buf)} bytes is smaller than "
                f"the {_HEADER.size}-byte header"
            )
        magic, version, _flags, _pad, footer_offset, footer_length = _HEADER.unpack(
            self._buf[: _HEADER.size]
        )
        if magic != MAGIC:
            raise MmapStoreError(
                f"{where}: bad magic {magic!r}; not an RCS1 mmap dataset"
            )
        if not MIN_VERSION <= version <= VERSION:
            raise MmapStoreError(
                f"{where}: unsupported RCS version {version}; this build "
                f"reads versions {MIN_VERSION} through {VERSION}"
            )
        self.version = version
        if footer_offset == 0 or footer_offset + footer_length > len(self._buf):
            raise MmapStoreError(
                f"{where}: footer pointer out of bounds (offset {footer_offset}, "
                f"length {footer_length}, file {len(self._buf)} bytes); "
                "the writer was probably never closed"
            )
        footer = bytes(self._buf[footer_offset : footer_offset + footer_length])
        self.eager_bytes = _HEADER.size + footer_length

        position = 0
        (num_columns,) = struct.unpack_from("<H", footer, position)
        position += 2
        names: list[str] = []
        types: list[str] = []
        for _ in range(num_columns):
            (name_length,) = struct.unpack_from("<H", footer, position)
            position += 2
            names.append(footer[position : position + name_length].decode("utf-8"))
            position += name_length
            types.append(chr(footer[position]))
            position += 1
        (num_partitions,) = struct.unpack_from("<I", footer, position)
        position += 4
        entries: list[tuple[int, int, int, int]] = []
        for _ in range(num_partitions):
            entries.append(struct.unpack_from("<4Q", footer, position))
            position += 32
        (meta_length,) = struct.unpack_from("<I", footer, position)
        position += 4
        meta_blob = footer[position : position + meta_length]
        position += meta_length
        (total_rows,) = struct.unpack_from("<Q", footer, position)
        position += 8

        for code in types:
            if code not in COLUMN_TYPES:
                raise MmapStoreError(
                    f"{where}: unknown column type code {code!r}; "
                    f"one of {COLUMN_TYPES}"
                )

        self.bloom_bits = 0
        self.bloom_hashes = 0
        self.stats: list[list[ColumnStats]] | None = None
        if version >= STATS_VERSION:
            try:
                self.bloom_bits, self.bloom_hashes, self.stats = (
                    _decode_stats_section(footer, position, types, num_partitions)
                )
            except struct.error as exc:
                raise MmapStoreError(
                    f"{where}: truncated STATS section in version {version} "
                    f"footer: {exc}"
                ) from None
        self.names = tuple(names)
        self.types = tuple(types)
        self.entries = entries
        self.num_partitions = num_partitions
        self.num_rows = total_rows
        self.meta = json.loads(meta_blob) if meta_length else {}

    # -- access ---------------------------------------------------------
    @property
    def file_size(self) -> int:
        return len(self._buf)

    def split_refs(self) -> list[MmapSplitRef]:
        if self.path is None:
            raise MmapStoreError("buffer-backed datasets have no file to reference")
        return [
            MmapSplitRef(self.path, index, *entry)
            for index, entry in enumerate(self.entries)
        ]

    def partition_stats(self, index: int) -> Mapping[str, ColumnStats] | None:
        """Column-name -> stats for one partition, or None without stats.

        The mapping is built on first use and shared by every later
        caller, so it is read-only.
        """
        if self.stats is None:
            return None
        mapping = self._stats_maps.get(index)
        if mapping is not None:
            return mapping
        if index < 0 or index >= self.num_partitions:
            raise MmapStoreError(
                f"partition {index} out of range; dataset has "
                f"{self.num_partitions} partitions"
            )
        mapping = MappingProxyType(dict(zip(self.names, self.stats[index])))
        self._stats_maps[index] = mapping
        return mapping

    def partition_store(self, index: int) -> ColumnStore:
        """The partition's :class:`ColumnStore` of lazy mmap-backed columns."""
        store = self._stores.get(index)
        if store is not None:
            return store
        if index < 0 or index >= self.num_partitions:
            raise MmapStoreError(
                f"partition {index} out of range; dataset has "
                f"{self.num_partitions} partitions"
            )
        _row_start, row_count, byte_offset, byte_length = self.entries[index]
        region = self._buf[byte_offset : byte_offset + byte_length]
        if _NATIVE_LE:
            table = region[: 8 * len(self.names)].cast("Q")
        else:
            table = _StructColumn(region[: 8 * len(self.names)], "<Q", len(self.names))
        columns = {
            name: _decode_column(region, table[ci], code, row_count)
            for ci, (name, code) in enumerate(zip(self.names, self.types))
        }
        store = ColumnStore(self.names, columns)
        self._stores[index] = store
        return store

    def close(self) -> None:
        self._stores.clear()
        self._buf.release()
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # Column views handed out earlier still point into the
                # mapping; it is freed when the last of them is collected.
                pass
            self._mmap = None


# ---------------------------------------------------------------------------
# Per-process open cache (map workers and the parent share it)
# ---------------------------------------------------------------------------
_open_cache: dict[str, tuple[tuple[int, int], MmapDataset]] = {}


def open_mmap_dataset(path: str | Path) -> MmapDataset:
    """Open (or reuse this process's handle to) an mmap dataset file.

    Keyed by absolute path + (mtime, size) so a rewritten file is picked
    up fresh; the stale handle is simply dropped — any stores already
    handed out keep their own mapping alive.
    """
    resolved = os.path.abspath(str(path))
    stat = os.stat(resolved)
    fingerprint = (stat.st_mtime_ns, stat.st_size)
    cached = _open_cache.get(resolved)
    if cached is not None and cached[0] == fingerprint:
        return cached[1]
    dataset = MmapDataset(resolved)
    _open_cache[resolved] = (fingerprint, dataset)
    return dataset


# ---------------------------------------------------------------------------
# PartitionedDataset integration
# ---------------------------------------------------------------------------
def dataset_meta(dataset) -> dict:
    """The JSON metadata blob stored with a written PartitionedDataset."""
    spec = dataset.spec
    return {
        "repro": {
            "spec": {
                "name": spec.name,
                "scale": spec.scale,
                "num_rows": spec.num_rows,
                "num_partitions": spec.num_partitions,
                "avg_row_bytes": spec.avg_row_bytes,
            },
            "seed": dataset.seed,
            "predicates": [
                {"name": name, "column": pred.column, "marker": pred.marker}
                for name, pred in sorted(dataset.predicates.items())
            ],
            "placements": {
                name: {
                    "counts": [int(c) for c in placement.counts],
                    "rank_of_partition": [
                        int(r) for r in placement.rank_of_partition
                    ],
                    "z": placement.z,
                    "total_matches": placement.total_matches,
                }
                for name, placement in sorted(dataset.placements.items())
            },
            "partitions": [
                {
                    "num_records": p.num_records,
                    "num_bytes": p.num_bytes,
                    "match_counts": {k: int(v) for k, v in p.match_counts.items()},
                }
                for p in dataset.partitions
            ],
        }
    }


def attach_mmap_refs(dataset, refs: list[MmapSplitRef]) -> None:
    """Point a dataset's partitions at their written file regions,
    dropping any in-memory rows/columns (the file is now the data)."""
    if len(refs) != len(dataset.partitions):
        raise MmapStoreError(
            f"{len(refs)} refs for {len(dataset.partitions)} partitions"
        )
    for partition, ref in zip(dataset.partitions, refs):
        partition.mmap_ref = ref
        partition.rows = None
        partition.columns = None


def write_mmap_dataset(
    dataset,
    path: str | Path,
    *,
    stats: bool = False,
    bloom_bits: int = DEFAULT_BLOOM_BITS,
) -> list[MmapSplitRef]:
    """Write an already-materialized PartitionedDataset to ``path`` and
    switch its partitions over to the mmap layout."""
    from repro.data.tpch import LINEITEM_SCHEMA

    first = dataset.partitions[0].column_store() if dataset.partitions else None
    if first is not None and first.names == LINEITEM_SCHEMA.field_names:
        types = column_types_for_schema(LINEITEM_SCHEMA)
        names = LINEITEM_SCHEMA.field_names
    elif first is not None:
        names = first.names
        types = infer_column_types(names, first.columns)
    else:
        raise MmapStoreError("cannot write an empty dataset")
    with MmapDatasetWriter(
        path,
        names,
        types,
        meta=dataset_meta(dataset),
        stats=stats,
        bloom_bits=bloom_bits,
    ) as writer:
        for partition in dataset.partitions:
            store = partition.column_store()
            writer.write_partition(store.columns, store.num_rows)
    refs = [
        MmapSplitRef(writer.path, index, *entry)
        for index, entry in enumerate(writer._entries)
    ]
    attach_mmap_refs(dataset, refs)
    return refs


def load_mmap_dataset(path: str | Path):
    """Reopen a written dataset file as a full PartitionedDataset.

    Requires the file to carry the ``repro`` metadata blob written by
    the dataset builders (spec, seed, predicate placements, per-partition
    match counts).
    """
    import numpy as np

    from repro.data.datasets import DatasetSpec, PartitionData, PartitionedDataset
    from repro.data.predicates import MarkerEquals
    from repro.data.skew import MatchPlacement

    reader = open_mmap_dataset(path)
    meta = reader.meta.get("repro")
    if not meta:
        raise MmapStoreError(
            f"{path}: file carries no dataset metadata; it was not written "
            "by the repro dataset builders"
        )
    spec = DatasetSpec(**meta["spec"])
    predicates = {
        entry["name"]: MarkerEquals(entry["column"], entry["marker"])
        for entry in meta["predicates"]
    }
    placements = {
        name: MatchPlacement(
            counts=np.asarray(body["counts"]),
            rank_of_partition=np.asarray(body["rank_of_partition"]),
            z=body["z"],
            total_matches=body["total_matches"],
        )
        for name, body in meta["placements"].items()
    }
    refs = reader.split_refs()
    partitions = [
        PartitionData(
            index=index,
            num_records=body["num_records"],
            num_bytes=body["num_bytes"],
            match_counts=dict(body["match_counts"]),
            mmap_ref=refs[index],
        )
        for index, body in enumerate(meta["partitions"])
    ]
    return PartitionedDataset(
        spec=spec,
        partitions=partitions,
        placements=placements,
        predicates=predicates,
        seed=meta["seed"],
    )
