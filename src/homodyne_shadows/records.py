"""Columnar measurement records: the type, its rules, its fold and its CSV formats.

A :class:`Records` holds four equal-length arrays ``t``, ``mode``, ``k``,
``i`` of indices (its constructor checks that).  Producers give each column
the narrowest of uint8, uint16 and uint32 that holds it (int64 beyond), and
consumers check a Records against their outcome grid with the rules of
:func:`checked_records`, ``_BLOCK`` rows at a time, in ``intp`` arithmetic.
Record and raw quadrature files have one reader (:func:`_blocks`): it
checks line 1, then reads pieces of whole lines of about ``_PIECE`` bytes,
and turns each into a column block that fills narrow columns grown in
place (:func:`_filled_records`), so each file is read once and no
stream-sized temporary is held.  A piece of record lines in
:func:`write_records`' exact format is decoded (:func:`_decoded_fields`);
numpy parses any other.
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
    """(None, shot count) for rows strictly sorted by (t, mode), else (their sort order, None)."""
    shots = min(t.size, 1)
    for lo in range(0, t.size - 1, _BLOCK):  # the steps from rows a to rows b = a + 1
        a, b = slice(lo, min(lo + _BLOCK, t.size - 1)), slice(lo + 1, lo + 1 + _BLOCK)
        step = t[b] > t[a]
        if not (step | ((t[b] == t[a]) & (mode[b] > mode[a]))).all():
            return np.lexsort((mode, t)), None
        shots += int(np.count_nonzero(step))
    return None, shots


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
    """:func:`checked_records`, also returning a multi-mode stream's order and shot count."""
    if not isinstance(records, Records):
        raise TypeError("expected Records, got %s" % type(records).__name__)
    if M is None or np.ndim(M) == 0:
        if M is not None and records:  # the fold states the single-mode rules; drop its counts
            next(_outcome_counts(records, M, N, (0, len(records))))
        return records, None, None
    t, mode, k, i = records.columns()
    S = len(M)
    grids = np.asarray([M, N])
    uniform = (grids == grids[:, :1]).all()
    order, shots = _shot_order(t, mode)
    repeat = np.broadcast_to(False, t.size)  # strictly sorted rows repeat no pair
    if order is not None:  # the later row of each (t, mode) pair adjacent in order
        repeat = np.zeros(t.size, dtype=bool)
        later, earlier = order[1:], order[:-1]
        same = t[later] == t[earlier]
        shots = t.size - int(np.count_nonzero(same))
        repeat[later[same & (mode[later] == mode[earlier])]] = True
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
    return records, order, shots


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


def _index_problem(field, bound=None):
    """Why ``field`` is not an index in 0..bound-1 (any int64 >= 0 without bound)."""
    text = field.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()) or not -(2**63) <= int(text) < 2**63:
        return "%r is not a 64-bit decimal integer" % field
    if int(text) < 0:
        return "%r is negative" % field
    if bound is not None and int(text) >= bound:
        return "%r is outside 0..%d" % (field, bound - 1)
    return None


def _quadrature_problem(field):
    """Why ``field`` is not a finite decimal number, in ASCII digits as numpy reads them."""
    try:
        if "_" in field or not np.isfinite(float(field.strip().encode("ascii"))):
            return "%r is not a finite number" % field
    except ValueError:
        return "%r is not a decimal number" % field
    return None


def _row_problem(row, dtype, bounds):
    """Why a csv row does not hold ``dtype``'s fields, ints below ``bounds[name]``; else None."""
    if len(row) != len(dtype.names):
        return "expected %d fields, got %d" % (len(dtype.names), len(row))
    for name, field in zip(dtype.names, row):
        if problem := (_quadrature_problem(field) if dtype[name].kind == "f"
                       else _index_problem(field, bounds.get(name))):
            return "%s %s" % (name, problem)


def _check_rows(body, line, check, cause=None):
    """Raise MalformedRecordError at the first csv row of ``body`` that ``check`` finds bad.

    ``body`` begins on file line ``line``; a row is named by the physical
    line it begins on, and so is a field over csv's size limit.  The first
    byte that is not UTF-8, and a '"' left open at the end, are named at
    their own line.  Else ``cause``, if given, is raised at line ``line``.
    """
    stop, why = len(body), None
    if body.count(b'"') % 2:  # the quotes after the one that opens it come in doubled pairs
        q = np.flatnonzero(np.frombuffer(body, np.uint8) == ord('"'))
        j = q.size - 1
        while j and q[j] - q[j - 1] == 1:
            j -= 2
        stop, why = q[j], "unclosed quote"
    try:
        str(body[:stop], "utf-8")
    except UnicodeDecodeError as exc:
        stop, why = exc.start, "byte 0x%02x is not UTF-8 text" % body[exc.start]
    body = body[:stop]
    ends = body.count(b"\n") + body.count(b"\r") - body.count(b"\r\n")
    reader = csv.reader(io.StringIO(str(body, "utf-8"), newline=""))
    first, problem = line, None  # first: the file line of the next row
    try:
        for row in reader:
            if why and reader.line_num > ends or (problem := row and check(row)):
                break  # at the row that the stop cuts short, or a bad one
            first = line + reader.line_num
    except csv.Error as exc:  # a field over csv's size limit
        problem = str(exc)
    if problem or why or cause:
        at = first if problem else line + ends if why else line
        raise MalformedRecordError("line %d: %s" % (at, problem or why or cause),
                                   ordinal=at) from cause


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


def _parsed_fields(body, dtype):
    """numpy's columns of the lines in ``body`` (None if they hold no data), and their count.

    Lines end in '\\n', '\\r\\n' or '\\r', and empty ones are skipped.
    """
    lines = io.StringIO(str(body, "utf-8"), newline=None).readlines()
    if all(line == "\n" for line in lines):  # numpy warns on lines without data
        return None, len(lines)
    data = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)
    return [data[name] for name in dtype.names], len(lines)


def _blocks(path, dtype, bounds, decode=None):
    """Yield the data rows of a headed CSV file as column blocks, one per piece of lines.

    Line 1 ends at its first '\\n' or '\\r' and must hold the names of
    ``dtype`` unless it is empty.  The file is read ``_PIECE`` bytes at a
    time and cut after the last '\\n' held, or the last '\\r' if it holds
    none, where the bytes before the cut hold an even count of '"' (every
    '"' opens, closes or doubles inside a quoted field), so no quoted field
    spans two pieces; while no cut is found, each read doubles what is held.
    A piece, the line end before its lines and then the lines, becomes
    ``decode(piece)`` when that gives its fields, else numpy's parse into
    ``dtype``, whose ints must lie below ``bounds[name]`` (any int64 >= 0
    without one) and floats be finite.  Each piece counts its lines, so one
    that breaks those rules, or that the file ends inside a quoted field
    of, is checked row by row (:func:`_check_rows`).
    """
    header, rules = dtype.names, functools.partial(_row_problem, dtype=dtype, bounds=bounds)
    with open(path, "rb") as fh:
        data, start, line = b"", None, 2  # line: where the next piece's lines begin
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
                _check_rows(data[:start], 1, lambda row: tuple(c.strip() for c in row) != header
                            and "expected header %s, got %r" % (",".join(header), ",".join(row)))
            begin = start + 1 + (data[start:start + 2] == b"\r\n")  # past the line end, '\r\n' too
            if quotes % 2:  # the file ends inside a quoted field
                _check_rows(data[begin:cut], line, rules)
            cols = decode(np.frombuffer(data, np.uint8, cut - start, start)) if decode else None
            if cols is not None:
                line += cols[0].size
            elif cut > begin:
                try:
                    cols, lines = _parsed_fields(memoryview(data)[begin:cut], dtype)
                    if cols and any(not np.isfinite([c.min(), c.max()]).all() if c.dtype.kind == "f"
                                    else c.min() < 0 or c.max() >= bounds.get(name, np.inf)
                                    for name, c in zip(header, cols)):
                        raise ValueError("a field is negative, past its bound or not finite")
                except ValueError as exc:
                    _check_rows(data[begin:cut], line, rules, exc)
                line += lines
            if cols:
                yield cols
            if not more:
                return
            data, start = data[cut - 1:], 0


def _filled_records(blocks):
    """:class:`Records` of non-empty (t, mode, k, i) column blocks, filled into narrow columns.

    The columns grow in place (``ndarray.resize``) to the rows filled after
    each block, so no column is copied whole.  Each has the narrowest
    record dtype of its maximum so far: a block that needs a wider one
    copies the rows filled before it into a new column.  The mode stays the
    first record's, broadcast (stride 0), until a row differs.
    """
    cols, first, rows = [None] * 4, None, 0
    for block in blocks:
        if first is None:
            first = _narrowed(block[1][:1])
        end = rows + block[0].size
        for j, c in enumerate(block):
            col = cols[j]
            if j == 1 and col is None:
                if (c == first).all():
                    continue
                col = np.broadcast_to(first, rows)  # the mode of the rows so far
            dtype = _index_dtype(int(c.max()))
            if col is not None and col.flags.writeable and dtype.itemsize <= col.dtype.itemsize:
                col.resize(end, refcheck=False)
            else:
                if col is not None and col.dtype.itemsize > dtype.itemsize:
                    dtype = col.dtype  # a broadcast first mode wider than this block's
                fresh = np.empty(end, dtype=dtype)
                if col is not None:
                    fresh[:rows] = col
                cols[j] = col = fresh  # the narrow column is freed before the next block
            col[rows:end] = c
        rows = end
    if first is None:
        return Records(*[np.empty(0, dtype=np.uint8)] * 4)
    if cols[1] is None:
        cols[1] = np.broadcast_to(first, rows)
    return Records(*cols)


def ingest_records(path):
    """Read a record CSV back into :class:`Records`.

    The file is read once, a piece of lines at a time (:func:`_blocks`): a
    piece in :func:`write_records`' exact format is decoded
    (:func:`_decoded_fields`) and numpy parses any other, and each block
    fills narrow columns grown to the rows read so far
    (:func:`_filled_records`), so no stream-sized temporary is held.  Empty
    files yield an empty stream; empty lines are skipped (a line of spaces
    is not empty) and fields may carry surrounding spaces.  Malformed rows,
    negative indices, bytes that are not UTF-8 and an unclosed quote raise
    with their 1-based file line.
    """
    return _filled_records(_blocks(path, _RECORD_DTYPE, {}, _decoded_fields))


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
    M, edges, read = binning.M, binning.edges, 0

    def blocks():
        nonlocal read
        for t, mode, k, x in _blocks(path, _RAW_DTYPE, {"k": grid.N}):
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
