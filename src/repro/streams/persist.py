"""Stream persistence: two on-disk formats, one loader.

Workloads used in experiments should be reproducible artifacts.  Two
formats are supported; :func:`load_stream`, :func:`load_columnar` and
:class:`ChunkedStreamReader` auto-detect which one a file uses.

**v1 — line-oriented text.**  Deliberately trivial, so streams can be
inspected, diffed, and generated by other tools:

.. code-block:: text

    # feww-stream v1 n=100 m=200
    + 3 17
    + 5 2
    - 3 17
    # optional trailing comment

Lines starting with ``#`` are comments and blank lines are ignored
anywhere after the header; the first line must be the header carrying
the dimensions.  :func:`dump_stream` can emit a trailing comment via
its ``trailer`` argument.

**v2 — columnar NPZ.**  The batch-first binary format: a NumPy ``.npz``
archive (an uncompressed zip container, magic bytes ``PK\\x03\\x04``)
holding exactly four entries:

``a``
    int64 array of A-endpoints, one per update, in stream order.
``b``
    int64 array of B-endpoints (same length).
``sign``
    int64 array of +1 (insert) / -1 (delete) values (same length).
``meta``
    int64 array ``[version, n, m]`` with ``version == 2``.

Loaders ignore any other entry, so an archive that still carries the
retired ``t`` (event-time) column loads as plain v2.

v2 files load as ready-to-stream NumPy columns — no per-item boxing —
and :class:`ChunkedStreamReader` slices them into engine-sized chunks,
so a persisted workload feeds a
:class:`~repro.engine.runner.FanoutRunner` without ever materialising
a list of :class:`~repro.streams.edge.StreamItem` objects.  v1 files
are parsed incrementally into the same column chunks.

Format choice: :func:`dump_stream` writes v1 by default (and always
when given a text handle); pass ``format="v2"`` — or use
:func:`dump_columnar`, or a ``.npz`` destination suffix with
``format="auto"`` — for the columnar format.
"""

from __future__ import annotations

import io
import os
import struct
import zipfile
from contextlib import suppress
from pathlib import Path
from typing import Iterator, Optional, TextIO, Tuple, Union

import numpy as np

from repro.streams.columnar import (
    DEFAULT_CHUNK_SIZE,
    ColumnarEdgeStream,
    Columns,
)
from repro.streams.edge import DELETE, INSERT, Edge, StreamItem
from repro.streams.stream import EdgeStream

HEADER_PREFIX = "# feww-stream v1"

#: Zip local-file-header magic; every NPZ (v2) file starts with it.
NPZ_MAGIC = b"PK\x03\x04"

#: Version tag stored in a v2 file's ``meta`` entry.
V2_VERSION = 2

FORMATS = ("v1", "v2", "auto")

Destination = Union[str, Path, TextIO]
Source = Union[str, Path, TextIO]


class StreamFormatError(ValueError):
    """Raised when a stream file is malformed.

    Attributes:
        line_number: 1-based offending line for text (v1) sources, or
            ``None`` when the error is not tied to a line (v2 files).
    """

    def __init__(self, message: str, line_number: Optional[int] = None) -> None:
        super().__init__(message)
        self.line_number = line_number


def _format_for(destination, format: str) -> str:
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    if format != "auto":
        return format
    if isinstance(destination, (str, Path)) and str(destination).endswith(".npz"):
        return "v2"
    return "v1"


# ----------------------------------------------------------------------
# Writing.
# ----------------------------------------------------------------------


def _atomic_write(path: Path, write) -> None:
    """Crash-safe file write: ``write(binary_handle)`` into a temp file
    in the same directory, then ``os.replace`` onto ``path``.

    An interrupted dump can therefore never leave a truncated artifact
    that later passes :func:`detect_version` — readers see either the
    complete new file or whatever was there before.
    """
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise


def dump_stream(
    stream,
    destination: Destination,
    *,
    format: str = "v1",
    trailer: Optional[str] = None,
) -> None:
    """Write a stream (:class:`EdgeStream` or :class:`ColumnarEdgeStream`).

    Args:
        stream: the update sequence to persist.
        destination: path or text handle (text handles imply v1).
        format: ``"v1"`` (text), ``"v2"`` (columnar NPZ), or ``"auto"``
            (v2 for ``.npz`` paths, v1 otherwise).
        trailer: optional comment appended after the last update (v1
            only); written as a ``# ...`` line that loaders skip.
    """
    format = _format_for(destination, format)
    if format == "v2":
        if not isinstance(destination, (str, Path)):
            raise ValueError("v2 (NPZ) streams require a path destination")
        _dump_v2(stream, Path(destination))
        return
    if isinstance(destination, (str, Path)):
        def _write(handle) -> None:
            text = io.TextIOWrapper(handle, encoding="ascii")
            dump_stream(stream, text, trailer=trailer)
            text.flush()
            text.detach()  # leave closing the binary handle to the caller

        _atomic_write(Path(destination), _write)
        return
    destination.write(f"{HEADER_PREFIX} n={stream.n} m={stream.m}\n")
    for item in stream:
        sign = "+" if item.is_insert else "-"
        destination.write(f"{sign} {item.edge.a} {item.edge.b}\n")
    if trailer is not None:
        destination.write(f"# {trailer}\n")


def dump_columnar(stream, destination: Union[str, Path]) -> None:
    """Persist a stream in the columnar v2 format (NPZ)."""
    dump_stream(stream, destination, format="v2")


def _dump_v2(stream, path: Path) -> None:
    if not isinstance(stream, ColumnarEdgeStream):
        stream = ColumnarEdgeStream.from_edge_stream(stream)
    meta = np.array([V2_VERSION, stream.n, stream.m], dtype=np.int64)
    # An explicit binary handle stops np.savez from appending ".npz"
    # to extension-less paths behind the caller's back.
    _atomic_write(path, lambda handle: np.savez(
        handle, a=stream.a, b=stream.b, sign=stream.sign, meta=meta
    ))


# ----------------------------------------------------------------------
# Reading.
# ----------------------------------------------------------------------


def _is_v2_path(path: Path) -> bool:
    with open(path, "rb") as handle:
        return handle.read(len(NPZ_MAGIC)) == NPZ_MAGIC


def detect_version(path: Union[str, Path]) -> int:
    """Format version (1 or 2) of a stream file, from its magic bytes.

    Reads only the first four bytes — cheap even for huge files.
    """
    return 2 if _is_v2_path(Path(path)) else 1


def _finish_v2_columns(
    path: Path,
    a: np.ndarray,
    b: np.ndarray,
    sign: np.ndarray,
    meta: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Shared tail of eager and mmap v2 loading: validate ``meta`` and
    normalise the column dtypes (a no-copy view when already int64)."""
    if meta.shape != (3,):
        raise StreamFormatError(f"{path}: malformed meta entry {meta!r}")
    version, n, m = (int(value) for value in meta)
    if version != V2_VERSION:
        raise StreamFormatError(
            f"{path}: unsupported feww-stream version {version}"
        )
    return (
        a.astype(np.int64, copy=False),
        b.astype(np.int64, copy=False),
        sign.astype(np.int64, copy=False),
        n,
        m,
    )


def _load_v2_columns(
    path: Path,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    try:
        with np.load(path) as archive:
            entries = set(archive.files)
            required = {"a", "b", "sign", "meta"}
            if not required <= entries:
                raise StreamFormatError(
                    f"{path}: v2 archive missing entries "
                    f"{sorted(required - entries)}"
                )
            a, b, sign = archive["a"], archive["b"], archive["sign"]
            meta = archive["meta"]
    except zipfile.BadZipFile as error:
        raise StreamFormatError(f"{path}: not a valid NPZ archive") from error
    return _finish_v2_columns(path, a, b, sign, meta)


# Zip local-file-header layout: 30 fixed bytes, then the (variable)
# filename and extra fields, then the member data.  v2 archives are
# written uncompressed (np.savez uses ZIP_STORED), so each member's
# data is a contiguous byte range of the file — mappable in place.
_LOCAL_HEADER_SIZE = 30


def _mmap_npz_entry(path: Path, info: zipfile.ZipInfo) -> np.ndarray:
    """Memory-map one stored (uncompressed) ``.npy`` member of an NPZ.

    Locates the member's data range from its local file header, parses
    the ``.npy`` header in place, and returns a read-only
    :class:`numpy.memmap` over the array bytes — no column data is read
    until a chunk slices into it.
    """
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        local = handle.read(_LOCAL_HEADER_SIZE)
        if len(local) != _LOCAL_HEADER_SIZE or local[:4] != NPZ_MAGIC:
            raise StreamFormatError(
                f"{path}: corrupt local header for entry {info.filename!r}"
            )
        name_length, extra_length = struct.unpack("<HH", local[26:30])
        handle.seek(info.header_offset + _LOCAL_HEADER_SIZE + name_length + extra_length)
        try:
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
            else:
                raise StreamFormatError(
                    f"{path}: entry {info.filename!r} uses unsupported "
                    f"npy format version {version}"
                )
        except ValueError as error:
            raise StreamFormatError(
                f"{path}: corrupt npy header in entry {info.filename!r}"
            ) from error
        offset = handle.tell()
    if int(np.prod(shape, dtype=np.int64)) == 0:
        return np.zeros(shape, dtype=dtype)
    return np.memmap(path, mode="r", dtype=dtype, shape=shape, offset=offset)


def _mmap_v2_columns(
    path: Path,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Like :func:`_load_v2_columns` but columns are memory-mapped.

    The tiny ``meta`` entry is materialised for validation; the update
    columns stay on disk until sliced.  Archives whose members are compressed (e.g. written
    by ``np.savez_compressed``) cannot be mapped and fall back to eager
    loading.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            entries = {info.filename: info for info in archive.infolist()}
    except zipfile.BadZipFile as error:
        raise StreamFormatError(f"{path}: not a valid NPZ archive") from error
    required = {"a.npy", "b.npy", "sign.npy", "meta.npy"}
    if not required <= set(entries):
        missing = sorted(name[: -len(".npy")] for name in required - set(entries))
        raise StreamFormatError(
            f"{path}: v2 archive missing entries {missing}"
        )
    if any(
        entries[name].compress_type != zipfile.ZIP_STORED for name in required
    ):
        return _load_v2_columns(path)
    return _finish_v2_columns(
        path,
        _mmap_npz_entry(path, entries["a.npy"]),
        _mmap_npz_entry(path, entries["b.npy"]),
        _mmap_npz_entry(path, entries["sign.npy"]),
        np.asarray(_mmap_npz_entry(path, entries["meta.npy"])),
    )


def load_columnar(
    source: Union[str, Path], validate: bool = True
) -> ColumnarEdgeStream:
    """Load a stream file (either format) as a :class:`ColumnarEdgeStream`."""
    path = Path(source)
    if _is_v2_path(path):
        a, b, sign, n, m = _load_v2_columns(path)
        return ColumnarEdgeStream(a, b, sign, n=n, m=m, validate=validate)
    with open(path, "r", encoding="ascii") as handle:
        return ColumnarEdgeStream.from_edge_stream(
            _load_v1(handle, validate=validate)
        )


def load_stream(source: Source, validate: bool = True) -> EdgeStream:
    """Read a stream written by :func:`dump_stream` (either format).

    Paths are sniffed for the NPZ magic; text handles are parsed as v1.

    Raises:
        StreamFormatError: on a missing/garbled header or malformed
            line (``.line_number`` locates the offence in v1 files).
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if _is_v2_path(path):
            return load_columnar(path, validate=validate).to_edge_stream()
        with open(path, "r", encoding="ascii") as handle:
            return _load_v1(handle, validate=validate)
    return _load_v1(source, validate=validate)


def _parse_header(header: str) -> Tuple[int, int]:
    if not header.startswith(HEADER_PREFIX):
        raise StreamFormatError(
            f"line 1: missing header, got {header[:40]!r}", line_number=1
        )
    try:
        fields = dict(
            part.split("=", 1) for part in header[len(HEADER_PREFIX):].split()
        )
        return int(fields["n"]), int(fields["m"])
    except (KeyError, ValueError) as error:
        raise StreamFormatError(
            f"line 1: bad header {header!r}", line_number=1
        ) from error


def _parse_line(line: str, line_number: int) -> StreamItem:
    parts = line.split()
    if len(parts) != 3 or parts[0] not in "+-":
        raise StreamFormatError(
            f"line {line_number}: malformed {line!r}", line_number=line_number
        )
    try:
        a, b = int(parts[1]), int(parts[2])
    except ValueError as error:
        raise StreamFormatError(
            f"line {line_number}: non-integer endpoint in {line!r}",
            line_number=line_number,
        ) from error
    return StreamItem(Edge(a, b), INSERT if parts[0] == "+" else DELETE)


def _load_v1(source: TextIO, validate: bool = True) -> EdgeStream:
    n, m = _parse_header(source.readline().rstrip("\n"))
    items = []
    for line_number, raw in enumerate(source, start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue  # comments and blank lines, anywhere in the body
        items.append(_parse_line(line, line_number))
    return EdgeStream(items, n, m, validate=validate)


def dumps_stream(stream: EdgeStream, trailer: Optional[str] = None) -> str:
    """Serialise to a v1 string (round-trips through :func:`loads_stream`)."""
    buffer = io.StringIO()
    dump_stream(stream, buffer, trailer=trailer)
    return buffer.getvalue()


def loads_stream(text: str, validate: bool = True) -> EdgeStream:
    """Parse a string produced by :func:`dumps_stream`."""
    return load_stream(io.StringIO(text), validate=validate)


# ----------------------------------------------------------------------
# Chunked reading (the engine's on-disk source).
# ----------------------------------------------------------------------


class ChunkedStreamReader:
    """Chunk-at-a-time reader over a persisted stream (either format).

    Exposes the stream's dimensions (``n``, ``m``), its format
    ``version`` (1 or 2), and a :meth:`chunks` iterator yielding
    ``(a, b, sign)`` column triples sized for ``process_batch`` — the
    same surface :class:`~repro.streams.columnar.ColumnarEdgeStream`
    offers, so :func:`repro.engine.as_chunks` treats files and
    in-memory streams uniformly.  v2 chunks are views of the stored
    columns, the same slices ``ColumnarEdgeStream.chunks`` yields; v1
    text is parsed incrementally, so at most one chunk of updates is
    held in Python objects at a time.

    With ``mmap=True`` a v2 file's columns are memory-mapped instead of
    loaded: opening the reader touches only the zip directory and npy
    headers, and each chunk pages in just its own slice — the
    out-of-core path that lets files larger than RAM stream through the
    engine (and lets every worker of a
    :class:`~repro.engine.sharded.ShardedRunner` share one on-disk
    copy).  Range validation then happens per chunk rather than at open
    time; v1 text is already incremental, so ``mmap`` is a no-op for it.

    Chunked reading validates identifier ranges and signs per chunk but
    not the cross-chunk simple-graph discipline (that would require
    whole-stream state); use :func:`load_columnar` when full validation
    is required.
    """

    def __init__(self, path: Union[str, Path], mmap: bool = False) -> None:
        self.path = Path(path)
        self.mmap = bool(mmap)
        self._validate_chunks = False
        if _is_v2_path(self.path):
            self.version = 2
            if self.mmap:
                a, b, sign, n, m = _mmap_v2_columns(self.path)
                # Checking ranges here would page the whole file in;
                # chunks() validates each slice as it is read instead.
                self._validate_chunks = True
            else:
                a, b, sign, n, m = _load_v2_columns(self.path)
            self.n, self.m = n, m
            if not self._validate_chunks:
                self._check_ranges(a, b, sign)
            self._columns: Optional[ColumnarEdgeStream] = ColumnarEdgeStream(
                a, b, sign, n=n, m=m, validate=False
            )
        else:
            self.version = 1
            self._columns = None
            with open(self.path, "r", encoding="ascii") as handle:
                self.n, self.m = _parse_header(handle.readline().rstrip("\n"))

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        with open(self.path, "r", encoding="ascii") as handle:
            handle.readline()
            return sum(
                1
                for raw in handle
                if raw.strip() and not raw.lstrip().startswith("#")
            )

    @property
    def insertion_only(self) -> bool:
        """True when the stream contains no deletions.

        For v2 files this scans only the sign column, a bounded slice
        at a time with an early exit at the first deletion — mmap
        readers page in at most the prefix up to that point, never the
        endpoint columns.  For v1 text it reads each line's sign
        character without parsing the line; :meth:`chunks` validates.
        """
        if self._columns is not None:
            sign = self._columns.sign
            step = 1 << 20
            for start in range(0, len(sign), step):
                if bool((sign[start:start + step] != INSERT).any()):
                    return False
            return True
        with open(self.path, "r", encoding="ascii") as handle:
            handle.readline()  # header, parsed in __init__
            return not any(raw.lstrip().startswith("-") for raw in handle)

    def _check_ranges(self, a: np.ndarray, b: np.ndarray, sign: np.ndarray) -> None:
        if len(a) and (
            int(a.min()) < 0
            or int(a.max()) >= self.n
            or int(b.min()) < 0
            or int(b.max()) >= self.m
        ):
            raise StreamFormatError(
                f"{self.path}: endpoint out of range for "
                f"n={self.n}, m={self.m}"
            )
        if len(sign) and not np.isin(sign, (INSERT, DELETE)).all():
            raise StreamFormatError(f"{self.path}: sign must be +1 or -1")

    def chunks(
        self, chunk_size: int = DEFAULT_CHUNK_SIZE, start: int = 0
    ) -> Iterator[Columns]:
        """Yield ``(a, b, sign)`` chunks of at most ``chunk_size`` updates.

        ``start`` skips that many leading updates — the checkpoint
        resume offset.  Chunk boundaries are measured from ``start``, so
        when it is a multiple of ``chunk_size`` (checkpoints are always
        taken on chunk boundaries) the resumed chunks line up exactly
        with the tail of an uninterrupted pass.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        if self._columns is not None:
            yield from self._column_slices(chunk_size, start)
            return
        with open(self.path, "r", encoding="ascii") as handle:
            handle.readline()  # header, parsed in __init__
            a_buf, b_buf, sign_buf = [], [], []
            skipped = 0
            for line_number, raw in enumerate(handle, start=2):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if skipped < start:
                    skipped += 1
                    continue
                item = _parse_line(line, line_number)
                a_buf.append(item.edge.a)
                b_buf.append(item.edge.b)
                sign_buf.append(item.sign)
                if len(a_buf) == chunk_size:
                    yield self._flush(a_buf, b_buf, sign_buf)
                    a_buf, b_buf, sign_buf = [], [], []
            if a_buf:
                yield self._flush(a_buf, b_buf, sign_buf)

    def _column_slices(
        self, chunk_size: int, start: int
    ) -> Iterator[Columns]:
        """Column-slice chunks beginning ``start`` updates in, each
        range-checked when the columns were not validated at open."""
        columns = self._columns
        for begin in range(start, len(columns), chunk_size):
            stop = begin + chunk_size
            chunk = (
                columns.a[begin:stop],
                columns.b[begin:stop],
                columns.sign[begin:stop],
            )
            if self._validate_chunks:
                self._check_ranges(*chunk)
            yield chunk

    def _flush(self, a_buf, b_buf, sign_buf) -> Columns:
        chunk = (
            np.array(a_buf, dtype=np.int64),
            np.array(b_buf, dtype=np.int64),
            np.array(sign_buf, dtype=np.int64),
        )
        self._check_ranges(*chunk)
        return chunk
