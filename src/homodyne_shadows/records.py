"""Columnar measurement records: the type, its rules, its fold and its CSV formats.

A :class:`Records` holds four equal-length arrays ``t``, ``mode``, ``k``,
``i`` of indices (its constructor checks that).  Producers give each column
the narrowest of uint8, uint16 and uint32 that holds it (int64 beyond), and
consumers check a Records against their outcome grid with the rules of
:func:`checked_records`, ``_BLOCK`` rows at a time, in ``intp`` arithmetic.
Record and raw quadrature files have one reader (:func:`_blocks`): it
checks line 1, then reads pieces of whole lines of about ``_PIECE`` bytes,
and turns each into a column block that fills narrow columns
(:func:`_filled_records`), so no stream-sized temporary is held.  A piece of
record lines in :func:`write_records`' exact format is decoded
(:func:`_decoded_fields`); numpy parses any other.
"""

import csv
import functools
import io
import numbers

import numpy as np

from .errors import MalformedRecordError

__all__ = [
    "Records",
    "checked_records",
    "write_records",
    "ingest_records",
    "bin_raw",
    "RECORD_HEADER",
    "RAW_HEADER",
]

RECORD_HEADER = ("t", "mode", "k", "i")
RAW_HEADER = ("t", "mode", "k", "x")

# Rows drawn, counted or written at a time: a block's columns and temporaries
# stay in a core's cache, and no temporary grows with the stream.
_BLOCK = 1 << 15

# Column dtypes that hold only indices.  A Records keeps these and int64 as
# given; not uint64, which numpy 1.24 compares with int64 through float64.
_NARROW = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32))


def _index_dtype(top):
    """The narrowest record column dtype that holds 0..top: uint8, uint16, uint32 or int64."""
    return np.min_scalar_type(top) if top < 2**32 else np.dtype(np.int64)


def _narrowed(c):
    """A copy of an index column in the narrowest record column dtype that holds it."""
    return c.astype(_index_dtype(int(c.max()) if c.size else 0))


def _not_index(c):
    """Mask of the rows of a column that are not whole numbers in 0..2**63-1."""
    if c.dtype.kind == "i":
        return c < 0
    if c.dtype.kind == "u":
        return c >= np.uint64(2**63)
    if c.dtype.kind in "bf":
        x = c.astype(np.float64)
        return ~((x >= 0) & (x < 2.0**63)) | (x != np.trunc(x))
    if c.dtype.kind == "O":
        return np.array([not _is_index(v) for v in c], dtype=bool)
    return np.ones(c.shape, dtype=bool)


def _is_index(v):
    """Whether a Python or numpy scalar is a whole number in 0..2**63-1."""
    return isinstance(v, numbers.Real) and 0 <= v < 2**63 and float(v).is_integer()


class Records:
    """Columnar measurement records: equal-length index arrays t, mode, k, i.

    Row j is shot ``t[j]`` of mode ``mode[j]`` landing in phase ``k[j]`` and
    bin ``i[j]``.  The constructor is where outside data becomes records,
    and every field must be an index: a whole number in 0..2**63-1.  A
    uint8, uint16, uint32 or int64 column is kept as given, without a copy;
    any other becomes int64.  Complex, string and other non-real columns
    hold no index.  The first row with a field that is not an index raises
    :class:`~homodyne_shadows.errors.MalformedRecordError` with its ordinal.
    ``len`` and truthiness count rows, ``records[a:b]`` gives a Records that
    shares memory with this one, and ``==`` compares the rows of two
    Records and returns a bool.  The producers give each column the
    narrowest of uint8, uint16 and uint32 that holds it, so cast a column to
    ``intp`` before arithmetic that may leave its dtype: ``i * N + k``
    wraps in uint8.  Columns may be views, some of them read-only: the
    ``mode`` of :func:`~homodyne_shadows.sim.sample`, and of any single-mode
    file that :func:`ingest_records` reads or :func:`bin_raw` bins, is one
    value broadcast to every row (stride 0).  Copy a column before writing
    into it.
    """

    __slots__ = ("t", "mode", "k", "i")

    def __init__(self, t, mode, k, i):
        cols = [np.asarray(c) for c in (t, mode, k, i)]
        T = cols[0].shape
        if len(T) != 1 or any(c.shape != T for c in cols):
            raise ValueError(
                "record columns must be 1-D of equal length, got shapes %r"
                % ([c.shape for c in cols],)
            )
        bad = False
        for c in cols:
            # A narrow column holds only indices, and an int column gets a row
            # mask only when its minimum is negative: a mask over every row of
            # a valid column would raise ingest's peak.
            if c.dtype not in _NARROW and (c.dtype.kind != "i" or (c.size and c.min() < 0)):
                bad = bad | _not_index(c)
        if np.any(bad):
            j = int(np.argmax(bad))
            fields = tuple(c[j:j + 1].tolist()[0] for c in cols)
            raise MalformedRecordError(
                "record %d (t=%r, mode=%r, k=%r, i=%r) has a field that is not an "
                "index, a whole number in 0..2**63-1" % ((j,) + fields),
                ordinal=j,
            )
        self.t, self.mode, self.k, self.i = (
            c if c.dtype in _NARROW else np.asarray(c, dtype=np.int64) for c in cols
        )

    def columns(self):
        """The four columns in ``RECORD_HEADER`` order."""
        return self.t, self.mode, self.k, self.i

    def __len__(self):
        return self.t.size

    def __getitem__(self, rows):
        if not isinstance(rows, slice):
            raise TypeError("Records take slices, not %s" % type(rows).__name__)
        return Records(*(c[rows] for c in self.columns()))

    def __eq__(self, other):
        if not isinstance(other, Records):
            return NotImplemented
        return len(self) == len(other) and all(
            np.array_equal(a, b) for a, b in zip(self.columns(), other.columns())
        )

    __hash__ = None

    def __repr__(self):
        return "Records(T=%d)" % len(self)


def _shot_order(t, mode):
    """Stable permutation sorting rows by (t, mode); None if already strictly sorted."""
    for lo in range(0, t.size - 1, _BLOCK):  # the steps from rows a to rows b = a + 1
        a, b = slice(lo, min(lo + _BLOCK, t.size - 1)), slice(lo + 1, lo + 1 + _BLOCK)
        if not ((t[b] > t[a]) | ((t[b] == t[a]) & (mode[b] > mode[a]))).all():
            return np.lexsort((mode, t))
    return None


def checked_records(records, M=None, N=None):
    """Check a :class:`Records` against an outcome grid with vectorized passes.

    Any other ``records`` raises ``TypeError``; without ``M`` and ``N``
    that is the whole check, as every field of a Records is an index.
    With ``M`` and ``N`` given as ints the stream is single-mode: each
    outcome must lie on the M x N grid and every record must carry the
    mode of the first.  With per-mode sequences ``M[j]``, ``N[j]`` the
    stream is multi-mode: each mode must lie in 0..len(M)-1, each outcome
    on its mode's grid, and no (t, mode) pair may repeat.  The first
    offending record raises
    :class:`~homodyne_shadows.errors.MalformedRecordError` with its ordinal
    (for a repeat, the ordinal of the second occurrence).
    """
    return _checked(records, M, N)[0]


def _checked(records, M, N):
    """:func:`checked_records`, also returning the ``_shot_order`` of a multi-mode stream."""
    if not isinstance(records, Records):
        raise TypeError("expected Records, got %s" % type(records).__name__)
    if M is None or not records:
        return records, None
    if np.ndim(M) == 0:  # the fold states the single-mode rules; drop its counts
        next(_outcome_counts(records, M, N, (0, len(records))))
        return records, None
    t, mode, k, i = records.columns()
    S = len(M)
    grids = np.asarray([M, N])
    uniform = (grids == grids[:, :1]).all()
    order = _shot_order(t, mode)
    repeat = np.zeros(t.size, dtype=bool)
    if order is not None:  # the later row of each (t, mode) pair adjacent in order
        later, earlier = order[1:], order[:-1]
        repeat[later[(t[later] == t[earlier]) & (mode[later] == mode[earlier])]] = True
    for start in range(0, t.size, _BLOCK):
        rows = slice(start, start + _BLOCK)
        t_b, mode_b, k_b, i_b, repeat_b = (c[rows] for c in (t, mode, k, i, repeat))
        # Each row's (M, N): one pair when every mode has the same grid, else a
        # gather in which a mode outside 0..S-1 reads the grid of mode S - 1.
        Mj, Nj = grids[:, 0] if uniform else np.take(grids, mode_b, axis=1, mode="clip")
        _raise_first_flagged([
            (mode_b >= S, lambda j: "references mode %d outside 0..%d" % (mode_b[j], S - 1)),
            ((i_b >= Mj) | (k_b >= Nj), lambda j: "references outcome (i=%d, k=%d) outside "
             "mode %d's %d x %d grid" % (i_b[j], k_b[j], mode_b[j], M[mode_b[j]], N[mode_b[j]])),
            (repeat_b, lambda j: "repeats mode %d of shot %d" % (mode_b[j], t_b[j])),
        ], start)
    return records, order


def _raise_first_flagged(rules, start=0):
    """Raise at the first row flagged by a rule, a (mask of rows from ``start``, message) pair.

    The message is that of the first rule, in list order, that flags the row.
    """
    j = min((int(np.argmax(mask)) for mask, _ in rules if mask.any()), default=None)
    if j is not None:
        describe = next(message for mask, message in rules if mask[j])
        raise MalformedRecordError("record %d %s" % (start + j, describe(j)), ordinal=start + j)


def _outcome_counts(records, M, N, bounds):
    """Yield the int64 table C[i*N + k] of outcome counts of each batch of a single-mode stream.

    Batch b is rows bounds[b]..bounds[b+1]-1 of a non-empty stream.  The
    columns are read ``_BLOCK`` rows at a time, so no temporary grows with
    the stream, and each block is checked against the single-mode rules of
    :func:`checked_records` (outcome on the M x N grid, mode of the first
    record) before it is counted.
    """
    _, mode, k, i = records.columns()
    first = mode[0]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        counts = np.zeros(M * N, dtype=np.int64)
        for start in range(lo, hi, _BLOCK):
            rows = slice(start, min(start + _BLOCK, hi))
            i_b, k_b, mode_b = i[rows], k[rows], mode[rows]
            _raise_first_flagged([
                ((i_b >= M) | (k_b >= N), lambda j: "references outcome (i=%d, k=%d) outside "
                 "the %d x %d outcome grid" % (i_b[j], k_b[j], M, N)),
                (mode_b != first, lambda j: "has mode %d but the stream began with mode %d; "
                 "a single-mode estimate takes one mode at a time" % (mode_b[j], first)),
            ], start)
            flat = np.multiply(i_b, N, dtype=np.intp)  # narrow columns would wrap
            flat += k_b
            counts += np.bincount(flat, minlength=M * N)
            del flat  # else it lives on beside the next block's index
        yield counts


def _encode_rows(cols):
    """ASCII bytes of ``"%d,%d,%d,%d\\n"`` per row of index columns (int64 >= 0).

    Each row fills one line of a uint8 matrix: every field is right-aligned
    in a fixed width (the digit count of its column's maximum), the
    separators sit in fixed columns, and unused leading places stay 0.
    Dropping the zeros leaves the formatted text.
    """
    widths = [len(str(int(c.max()))) for c in cols]
    mat = np.zeros((cols[0].size, sum(widths) + len(cols)), dtype=np.uint8)
    end = 0
    for c, width in zip(cols, widths):
        end += width
        v = c.astype(np.uint32 if width <= 9 else np.uint64)
        ten = v.dtype.type(10)
        for place in range(end - 1, end - width - 1, -1):
            q = v // ten
            digit = (v - q * ten).astype(np.uint8) + np.uint8(48)
            mat[:, place] = digit if place == end - 1 else digit * (v != 0)
            v = q
        mat[:, end] = ord(",")
        end += 1
    mat[:, -1] = ord("\n")
    return mat[mat != 0].tobytes()


def write_records(path, records):
    """Write records as CSV with header ``t,mode,k,i`` (LF line endings).

    The bytes are those of ``"%d,%d,%d,%d\\n"`` per row.  Rows are encoded
    ``_BLOCK`` at a time as a numpy byte matrix (see :func:`_encode_rows`),
    so memory stays bounded and no row becomes a Python integer.
    """
    rec = checked_records(records)
    cols = rec.columns()
    with open(path, "wb") as fh:
        fh.write((",".join(RECORD_HEADER) + "\n").encode("ascii"))
        for start in range(0, len(rec), _BLOCK):
            fh.write(_encode_rows([c[start:start + _BLOCK] for c in cols]))


_INT64_RANGE = range(-(2**63), 2**63)


def _index_problem(field, bound=None):
    """Why ``field`` is not an index in 0..bound-1 (any int64 >= 0 without bound)."""
    text = field.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()) or int(text) not in _INT64_RANGE:
        return "%r is not a 64-bit decimal integer" % field
    if int(text) < 0:
        return "%r is negative" % field
    if bound is not None and int(text) >= bound:
        return "%r is outside 0..%d" % (field, bound - 1)
    return None


def _quadrature_problem(field):
    """Why ``field`` is not a finite decimal number."""
    try:
        if "_" in field or not np.isfinite(float(field)):
            return "%r is not a finite number" % field
    except ValueError:
        return "%r is not a decimal number" % field
    return None


def _undecoded_problem(row):
    """Why a row read with errors="surrogateescape" is not UTF-8 text; None if it is."""
    text = ",".join(row)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:  # surrogateescape reads byte b as U+DC00 + b
        return "byte 0x%02x is not UTF-8 text" % (ord(text[exc.start]) - 0xDC00)
    return None


def _row_problem(row, header, checks):
    if problem := _undecoded_problem(row):
        return problem
    if len(row) != len(checks):
        return "expected %d fields, got %d" % (len(checks), len(row))
    for name, check, field in zip(header, checks, row):
        problem = check(field)
        if problem:
            return "%s %s" % (name, problem)
    return None


def _raise_first_bad_row(path, header, checks, cause=None):
    """Raise MalformedRecordError at the first data row a field check rejects.

    Only called once a vectorized pass has found a bad row, so this
    per-line rescan runs on error paths alone; it names the row's 1-based
    file line, counting empty lines, which numpy's reader does not.  A
    byte that is not UTF-8 makes its row bad.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or lineno == 1:
                continue
            problem = _row_problem(row, header, checks)
            if problem:
                raise MalformedRecordError(
                    "line %d: %s" % (lineno, problem), ordinal=lineno
                ) from cause
    raise MalformedRecordError("%s: %s" % (path, cause), ordinal=0) from cause


def _checked_header(line, header):
    """MalformedRecordError unless ``line`` (line 1, no line end) holds ``header`` or is empty."""
    row = next(csv.reader([line]), [])
    if row and tuple(c.strip() for c in row) != header:
        raise MalformedRecordError("line 1: %s" % (
            _undecoded_problem(row)
            or "expected header %s, got %r" % (",".join(header), ",".join(row))
        ), ordinal=1)


_RECORD_DTYPE = np.dtype([(name, np.int64) for name in RECORD_HEADER])
_RAW_DTYPE = np.dtype([(name, np.int64) for name in RAW_HEADER[:3]] + [("x", np.float64)])


def _decoded_fields(buf):
    """The (t, mode, k, i) fields of the canonical lines in uint8 ``buf``, or None for other bytes.

    ``buf`` is '\\n', then n >= 1 lines of four fields of 1-18 ASCII digits
    split by ',' and ended by '\\n'.  The separators are checked by counts:
    the bytes that are not digits are 4n + 1, each fourth of them a '\\n',
    and 3n bytes are ','.  A field's width is one less than the gap between
    the separators around it, and fields are summed a place at a time, in
    uint32 for a column of at most 9 digits and in int64 beyond.
    """
    digits = np.subtract(buf, 48, dtype=np.uint8)  # bytes below '0' wrap above 9
    seps = np.flatnonzero(digits > 9)
    n, rest = divmod(seps.size - 1, 4)
    if (n < 1 or rest or (buf[seps[::4]] != 10).any()
            or np.count_nonzero(digits == (44 - 48) % 256) != 3 * n):
        return None
    gaps = np.subtract(seps[1:], seps[:-1])  # width + 1
    if gaps.min() < 2 or gaps.max() > 19:
        return None
    fields = []
    for c in range(4):
        end, gap = seps[c + 1::4], gaps[c::4]
        W, short = int(gap.max()) - 1, int(gap.min()) - 1
        out = np.zeros(n, dtype=np.uint32 if W <= 9 else np.int64)
        pos = end - W
        for place in range(W - 1, -1, -1):  # from the leftmost place: out = 10*out + digit
            digit = digits.take(pos)
            if place >= short:
                digit[gap <= place + 1] = 0  # a field narrower than the place
            out *= 10
            out += digit
            pos += 1
        fields.append(out)
    return fields


# Bytes read at a time: about 4,700 lines of a 10**6-shot stream.
_PIECE = 2 * _BLOCK


def _parsed_fields(piece, dtype):
    """numpy's columns of the lines after byte 0 of uint8 ``piece``; None if they hold no data.

    Lines end in '\\n', '\\r\\n' or '\\r', and empty ones are skipped.
    """
    text = str(piece[1:], "utf-8", "surrogateescape")
    if not text.strip("\r\n"):  # numpy warns on lines without data
        return None
    data = np.loadtxt(io.StringIO(text, newline=None).readlines(), dtype=dtype, delimiter=",",
                      comments=None, quotechar='"', ndmin=1, encoding="utf-8")
    return [data[name] for name in dtype.names]


def _blocks(path, header, dtype, checks, decode=None):
    """Yield the data rows of a headed CSV file as column blocks, one per piece of lines.

    Line 1 ends at its first '\\n' or '\\r' and must hold ``header`` unless
    it is empty (:func:`_checked_header`).  The file is read ``_PIECE``
    bytes at a time and cut after the last '\\n' held, or the last '\\r' if
    it holds none, where the bytes before the cut hold an even count of '"'
    (every '"' opens, closes or doubles inside a quoted field), so no quoted
    field spans two pieces; while no cut is found, each read doubles what
    is held.  A piece, the line end before its lines and then the lines,
    becomes ``decode(piece)`` when that gives its fields, else numpy's
    parse into ``dtype`` (:func:`_parsed_fields`).  Rows numpy cannot parse,
    a byte that is not UTF-8 among them, and a parsed block with a negative
    int64 field raise through :func:`_raise_first_bad_row` with ``checks``.
    """
    with open(path, "rb") as fh:
        data, start = b"", None  # start: where the next piece begins, once line 1 is read
        while True:
            more = fh.read(max(_PIECE, len(data)))  # doubles what is held until it can be cut
            data += more
            cut = (data.rfind(b"\n") + 1 or data.rfind(b"\r") + 1) if more else len(data)
            # find first: the exact format holds no '"', and count is slower.
            quotes = data.find(b'"', 0, cut) >= 0 and data.count(b'"', 0, cut)
            if more and (cut <= 1 or quotes % 2):
                continue
            if start is None:
                start = min((j for j in (data.find(b"\n", 0, cut), data.find(b"\r", 0, cut))
                             if j >= 0), default=cut)  # line 1's end
                _checked_header(str(data[:start], "utf-8", "surrogateescape"), header)
            piece = np.frombuffer(data, np.uint8, cut - start, start)
            cols = decode(piece) if decode else None
            if cols is None and piece.size > 1:  # more than the line end before the lines
                try:
                    cols = _parsed_fields(piece, dtype)
                except ValueError as exc:
                    _raise_first_bad_row(path, header, checks, exc)
                if cols and any(c.dtype.kind == "i" and c.min() < 0 for c in cols):
                    _raise_first_bad_row(path, header, checks)
            if cols:
                yield cols
            if not more:
                return
            data, start = data[cut - 1:], 0


def _filled_records(blocks, capacity=0):
    """:class:`Records` of non-empty (t, mode, k, i) column blocks, filled into narrow columns.

    The columns hold ``capacity`` rows from the start and grow in place
    (``ndarray.resize``) when the blocks pass it, so no column is copied
    whole.  Each has the narrowest record dtype of its maximum so far: a
    block that needs a wider one widens only the rows filled before it.
    The mode stays the first record's, broadcast (stride 0), until a row
    differs.
    """
    cols, first, rows = [None] * 4, None, 0
    for block in blocks:
        size = block[0].size
        if first is None:
            first = _narrowed(block[1][:1])
        if rows + size > capacity:
            capacity = rows + size
            for col in cols:
                if col is not None:
                    col.resize(capacity, refcheck=False)
        for j, c in enumerate(block):
            col = cols[j]
            if j == 1 and col is None:
                if (c == first).all():
                    continue
                col = np.broadcast_to(first, capacity)  # the mode of the rows so far
            dtype = _index_dtype(int(c.max()))
            if col is None or not col.flags.writeable or dtype.itemsize > col.dtype.itemsize:
                if col is not None and col.dtype.itemsize > dtype.itemsize:
                    dtype = col.dtype  # a broadcast first mode wider than this block's
                cols[j] = np.empty(capacity, dtype=dtype)
                if col is not None:
                    cols[j][:rows] = col[:rows]
            cols[j][rows:rows + size] = c
        rows += size
    if first is None:
        return Records(*[np.empty(0, dtype=np.uint8)] * 4)
    if cols[1] is None:
        cols[1] = np.broadcast_to(first, rows)
    return Records(*(c[:rows] for c in cols))


def ingest_records(path):
    """Read a record CSV back into :class:`Records`.

    A pass counts the file's '\\n' bytes, and the rows fill narrow columns
    of that many rows, grown in place when '\\r' line ends hold more
    (:func:`_filled_records`).  The file is read a piece of lines at a time
    (:func:`_blocks`): a piece in :func:`write_records`' exact format is
    decoded (:func:`_decoded_fields`) and numpy parses any other, so no
    stream-sized temporary is held.  Empty files yield an empty stream;
    empty lines are skipped (a line of spaces is not empty) and fields may
    carry surrounding spaces.  Malformed rows, negative indices and bytes
    that are not UTF-8 raise with their 1-based line number.
    """
    with open(path, "rb") as fh:
        n = sum(np.count_nonzero(np.frombuffer(piece, np.uint8) == 10)
                for piece in iter(functools.partial(fh.read, _PIECE), b""))
    checks = [_index_problem] * 4
    return _filled_records(_blocks(path, RECORD_HEADER, _RECORD_DTYPE, checks, _decoded_fields), n)


def bin_raw(path, grid, binning):
    """Bin raw quadrature rows ``t,mode,k,x`` into measurement records.

    Bins are right-open ([x_i, x_{i+1})), so a value exactly on an interior
    edge belongs to the bin on its right.  Out-of-range values follow the
    binning's tail policy: extend-tails clamps them into the adjacent edge
    bin, strict-finite drops them.  Returns ``(records, dropped_fraction)``.
    The file is parsed and binned a piece of lines at a time
    (:func:`_blocks`), and each block's kept rows fill narrow columns
    (:func:`_filled_records`), so the call holds its result and one block.
    """
    checks = [_index_problem, _index_problem, lambda f: _index_problem(f, grid.N),
              _quadrature_problem]
    M, edges, read = binning.M, binning.edges, 0

    def blocks():
        nonlocal read
        for t, mode, k, x in _blocks(path, RAW_HEADER, _RAW_DTYPE, checks):
            if k.max() >= grid.N or not np.isfinite([x.min(), x.max()]).all():  # NaN, inf too
                _raise_first_bad_row(path, RAW_HEADER, checks)
            above = np.searchsorted(edges, x, "right")  # one past the bin: 0 .. M + 1
            if binning.tail_mode == "extend-tails":
                np.clip(above, 1, M, out=above)
            kept = (above > 0) & (above <= M)
            above -= 1
            read += x.size
            if kept.all():
                yield t, mode, k, above
            elif kept.any():
                yield t[kept], mode[kept], k[kept], above[kept]

    records = _filled_records(blocks())
    return records, (read - len(records)) / read if read else 0.0
