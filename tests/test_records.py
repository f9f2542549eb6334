"""Tests for columnar records: the Records type, its validator and its CSV format."""

import hashlib
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homodyne_shadows import records as records_mod
from homodyne_shadows.cli import EXIT_DATA, EXIT_OK, main
from homodyne_shadows.errors import MalformedRecordError
from homodyne_shadows.povm import BinningScheme, PhaseGrid, build_povm, design_bins, save_povm
from homodyne_shadows.shadow import (
    DEFAULT_BATCHES,
    estimate_observable,
    exact_average_snapshot,
    frame_operator,
    invert_frame,
    reconstruct_state,
    snapshot_values,
    snapshots,
)
from homodyne_shadows.records import (
    _BLOCK,
    _PIECE,
    _decoded_fields,
    _filled_records,
    _narrowed,
    RECORD_HEADER,
    Records,
    bin_raw,
    checked_records,
    ingest_records,
    write_records,
)
from homodyne_shadows.sim import (
    MultiModeConfig,
    estimate_local,
    joint_distribution,
    outcome_distribution,
    sample,
    sample_multi,
)
from homodyne_shadows.states import fock, number_operator

from conftest import records_of

# sha256 of `hshadow simulate --nmax 3 --phases 7 --bins 5 --state fock:2
# --T 2000 --seed 424242`, taken before records became columnar.
GOLDEN_SIMULATE_SHA256 = "ad80a12e5f6090177ee9f9efe2352f0eb1e7367300b24b54dc1bf301d26267ba"


@pytest.fixture(scope="module")
def setup_223():
    """Strict snapshot table of an IC (n_max=2, N=5, M=4) POVM."""
    povm = build_povm(PhaseGrid(5), design_bins(2, 5, 4), 2)
    return povm, snapshots(povm, invert_frame(frame_operator(povm)))


@pytest.fixture(scope="module")
def local_33():
    povm = build_povm(PhaseGrid(3), design_bins(1, 3, 3), 1)
    table = snapshots(povm, invert_frame(frame_operator(povm)))
    return MultiModeConfig([povm, povm]), table


class TestRecordsType:
    def test_len_truthiness_and_slicing(self):
        rows = [(0, 0, 1, 2), (1, 0, 3, 4), (2, 1, 0, 0)]
        rec = records_of(rows)
        assert isinstance(rec, Records)
        assert len(rec) == 3 and rec
        assert not records_of([])
        assert isinstance(rec[:2], Records) and rec[:2] == records_of(rows[:2])
        assert np.shares_memory(rec[1:].k, rec.k)
        with pytest.raises(TypeError, match="slice"):
            rec[1]
        with pytest.raises(TypeError):
            list(rec)

    def test_equality_is_a_python_bool(self):
        rows = [(0, 0, 1, 2), (1, 0, 3, 4)]
        rec = records_of(rows)
        assert (rec == records_of(rows)) is True
        assert (rec == records_of(rows[:1])) is False
        assert (rec != records_of([(0, 0, 1, 2), (1, 0, 3, 5)])) is True
        assert (records_of([]) == records_of([])) is True
        assert (rec == records_of([])) is False
        assert (rec == rows) is False
        assert (rec == "ab") is False
        with pytest.raises(TypeError):
            hash(rec)

    def test_columns_are_int64_of_equal_length(self):
        rec = Records([0, 1], [0, 0], [2, 3], [4, 5])
        assert all(c.dtype == np.int64 for c in rec.columns())
        with pytest.raises(ValueError):
            Records([0, 1], [0], [2, 3], [4, 5])

    def test_narrow_unsigned_columns_are_kept(self):
        cols = [np.array([0, 2**32 - 1], dtype=np.uint32), np.array([0, 1], dtype=np.uint8),
                np.array([0, 2**16 - 1], dtype=np.uint16), np.array([4, 5], dtype=np.int64)]
        rec = Records(*cols)
        assert all(c is d for c, d in zip(rec.columns(), cols))
        # Other integer dtypes become int64; uint64 too, as numpy 1.24 compares
        # uint64 with int64 through float64.
        for dtype in (np.int8, np.int32, np.uint64):
            assert Records(*[np.array([1, 2], dtype=dtype)] * 4).k.dtype == np.int64

    @pytest.mark.parametrize(
        "k, ordinal",
        [([1.7], 0), ([0.0, 1.0, -0.5], 2), ([0, np.nan], 1), ([np.inf], 0), ([2.0**63], 0)],
    )
    def test_non_integral_field_carries_its_ordinal(self, k, ordinal):
        T = len(k)
        with pytest.raises(MalformedRecordError) as excinfo:
            Records(np.arange(T), np.zeros(T, dtype=int), k, np.zeros(T, dtype=int))
        assert excinfo.value.ordinal == ordinal

    @pytest.mark.parametrize(
        "k, ordinal",
        [
            # int64 would wrap 2**63 + 1 to a negative number.
            (np.array([0, 2**63 + 1], dtype=np.uint64), 1),
            # Casting would keep only the real part, 1.
            (np.array([1 + 2j]), 0),
            (np.array(["1", "a"]), 0),
            (np.array([0, None], dtype=object), 1),
        ],
        ids=["uint64-beyond-int64", "complex", "string", "object-None"],
    )
    def test_unusable_column_carries_its_ordinal(self, k, ordinal):
        T = len(k)
        with pytest.raises(MalformedRecordError) as excinfo:
            Records(np.arange(T), np.zeros(T, dtype=int), k, np.zeros(T, dtype=int))
        assert excinfo.value.ordinal == ordinal

    def test_unsigned_and_object_integers_are_accepted(self):
        k = np.array([2**63 - 1, 0], dtype=np.uint64)
        rec = Records([0, 1], np.array([0, 0], dtype=object), k, np.array([1, 2**63 - 1], dtype=object))
        assert rec.k.tolist() == [2**63 - 1, 0] and rec.i.tolist() == [1, 2**63 - 1]
        with pytest.raises(MalformedRecordError) as excinfo:
            Records([0, 1], [0, 0], [0, 0], np.array([0, 2**63], dtype=object))
        assert excinfo.value.ordinal == 1

    @pytest.mark.parametrize(
        "k, ordinal",
        [
            (np.array([0, 3, -2, -1], dtype=np.int64), 2),
            (np.array([5, -(2**63)], dtype=np.int64), 1),
            (np.array([1, 2, -1], dtype=np.int8), 2),
            (np.array([0, 2**63, 2**64 - 1], dtype=np.uint64), 1),
            (np.array([0.0, -1.0, 1.5]), 1),
            (np.array([-0.5]), 0),
            (np.array([0, 2**63 - 1, -1], dtype=object), 2),
            (np.array([0, 2**63], dtype=object), 1),
            (np.array([1.0, -3.0], dtype=object), 1),
        ],
        ids=["int64", "int64-min", "int8", "uint64", "float", "float-fraction",
             "object-negative", "object-beyond-int64", "object-float"],
    )
    def test_field_that_is_not_an_index_names_the_first_bad_row(self, k, ordinal):
        T = len(k)
        with pytest.raises(MalformedRecordError, match=r"^record %d \(t=.*\) has a field "
                           r"that is not an index" % ordinal) as excinfo:
            Records(np.arange(T), np.zeros(T, dtype=int), k, np.zeros(T, dtype=int))
        assert excinfo.value.ordinal == ordinal

    def test_first_bad_row_over_all_columns(self):
        # Row 2's t is the first bad field in column order; row 1's i comes first by row.
        with pytest.raises(MalformedRecordError) as excinfo:
            Records([0, 1, -1], [0, 0, 0], [0, 0, 0], np.array([0, -1, 0], dtype=np.int16))
        assert excinfo.value.ordinal == 1

    def test_integral_and_empty_columns_are_accepted(self):
        t = np.arange(3)
        rec = Records(t, [0.0, 0.0, 0.0], np.array([2, 1, 0], dtype=np.int32), [True, False, True])
        assert rec == records_of([(0, 0, 2, 1), (1, 0, 1, 0), (2, 0, 0, 1)])
        assert rec.t is t
        empty = Records(np.empty(0), np.empty(0, dtype=np.float32), [], np.empty(0, dtype=int))
        assert len(empty) == 0

    def test_consumers_reject_row_lists(self, setup_223, local_33, tmp_path):
        _, table = setup_223
        cfg, _ = local_33
        rows = [(0, 0, 1, 2), (1, 0, 3, 1)]
        calls = [
            lambda: checked_records(rows),
            lambda: write_records(tmp_path / "records.csv", rows),
            lambda: estimate_observable(rows, table, number_operator(2)),
            lambda: reconstruct_state(rows, table),
            lambda: estimate_local(rows, cfg, {}, {}),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="Records"):
                call()
        assert not (tmp_path / "records.csv").exists()


class TestValidator:
    def test_single_mode_reports_first_bad_ordinal(self):
        cases = [  # the first two raise at the Records constructor
            ([(0, 0, 0, 0), (-1, 0, 0, 0)], 1),
            ([(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, -1, 0)], 2),
            ([(0, 0, 0, 0), (1, 0, 0, 3)], 1),  # bin outside M = 3
            ([(0, 0, 5, 0)], 0),  # phase outside N = 5
            ([(0, 2, 0, 0), (1, 2, 0, 0), (2, 1, 0, 0), (3, 0, 9, 9)], 2),
        ]
        for rows, ordinal in cases:
            with pytest.raises(MalformedRecordError) as excinfo:
                checked_records(records_of(rows), 3, 5)
            assert excinfo.value.ordinal == ordinal, rows

    def test_multi_mode_checks_mode_range_and_repeats(self):
        with pytest.raises(MalformedRecordError) as excinfo:
            checked_records(records_of([(0, 0, 0, 0), (0, 2, 0, 0)]), [3, 3], [5, 5])
        assert excinfo.value.ordinal == 1
        with pytest.raises(MalformedRecordError) as excinfo:
            checked_records(
                records_of([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (1, 0, 1, 1)]),
                [3, 3],
                [5, 5],
            )
        assert excinfo.value.ordinal == 3
        assert "repeats mode 0 of shot 1" in str(excinfo.value)

    def test_multi_mode_checks_each_modes_grid(self):
        grids = [3, 2], [5, 3]  # mode 0 on a 3 x 5 grid, mode 1 on a 2 x 3 one
        rows = [(0, 0, 4, 2), (0, 1, 2, 1)]
        assert checked_records(records_of(rows), *grids) == records_of(rows)
        for row, outcome in [((1, 1, 3, 0), "(i=0, k=3)"), ((1, 1, 0, 2), "(i=2, k=0)")]:
            with pytest.raises(MalformedRecordError, match=re.escape(
                    "record 2 references outcome %s outside mode 1's 2 x 3 grid" % outcome)):
                checked_records(records_of(rows + [row]), *grids)
        for row in [(1, 0, 0, 3), (1, 1, 5, 0)]:  # one grid for both modes
            with pytest.raises(MalformedRecordError, match="outside mode") as excinfo:
                checked_records(records_of(rows + [row]), [3, 3], [5, 5])
            assert excinfo.value.ordinal == 2

    @pytest.mark.parametrize(
        "rows, M, N, message",
        [
            # The first bad row raises, whichever rule flags it ...
            ([(0, 0, 0, 0), (1, 1, 0, 0), (2, 0, 9, 0)], 3, 5, "record 1 has mode 1"),
            # ... with the message of the first rule that flags it.
            ([(0, 0, 0, 0), (1, 1, 9, 0)], 3, 5, "record 1 references outcome (i=0, k=9) "
             "outside the 3 x 5 outcome grid"),
            ([(0, 0, 0, 0), (0, 2, 9, 9), (0, 2, 0, 0)], [3, 3], [5, 5],
             "record 1 references mode 2 outside 0..1"),
            ([(0, 1, 0, 0), (0, 1, 0, 7)], [3, 3], [5, 5],
             "record 1 references outcome (i=7, k=0) outside mode 1's 3 x 5 grid"),
        ],
        ids=["earliest-row", "grid-before-mode", "mode-range-first", "grid-before-repeat"],
    )
    def test_rule_order(self, rows, M, N, message):
        with pytest.raises(MalformedRecordError, match="^" + re.escape(message)):
            checked_records(records_of(rows), M, N)

    def test_negative_index_names_the_row(self):
        # A negative field never reaches the validator: the constructor rejects it.
        with pytest.raises(MalformedRecordError, match=r"^record 1 \(t=1, mode=0, k=-2, i=3\) "
                           r"has a field that is not an index, a whole number in "
                           r"0\.\.2\*\*63-1$") as excinfo:
            Records([0, 1], [0, 0], [0, -2], [0, 3])
        assert excinfo.value.ordinal == 1

    def test_without_a_grid_only_the_type_is_checked(self):
        rec = records_of([(7, 3, 2**40, 9), (0, 0, 0, 2**62)])
        assert checked_records(rec) is rec

    def test_valid_streams_pass_unchanged(self):
        rec = records_of([(0, 1, 4, 2), (1, 1, 0, 0)])
        assert checked_records(rec, 3, 5) is rec
        assert checked_records(rec, [1, 3], [1, 5]) is rec


class TestMixedModeStreams:
    """Single-mode consumers refuse streams that interleave modes."""

    @pytest.fixture
    def mixed(self, setup_223):
        povm, _ = setup_223
        config = MultiModeConfig([povm, povm])
        dist = joint_distribution([fock(0, 2), fock(2, 2)], config)
        return sample_multi(dist, 20_000, seed=5)

    def test_estimate_observable_rejects_mixed_modes(self, setup_223, mixed):
        _, table = setup_223
        with pytest.raises(MalformedRecordError) as excinfo:
            estimate_observable(mixed, table, number_operator(2))
        assert excinfo.value.ordinal == 1

    def test_reconstruct_state_rejects_mixed_modes(self, setup_223, mixed):
        _, table = setup_223
        with pytest.raises(MalformedRecordError) as excinfo:
            reconstruct_state(mixed[:4], table)
        assert excinfo.value.ordinal == 1

    def test_one_mode_of_the_stream_is_accepted(self, setup_223, mixed):
        _, table = setup_223
        mode1 = mixed[1::2]
        est = estimate_observable(mode1, table, number_operator(2))
        assert est.shots == 20_000
        assert abs(est.mean - 2.0) <= 5 * est.stderr

    def test_cli_estimate_exits_65(self, setup_223, mixed, tmp_path, capsys):
        path = tmp_path / "two_modes.csv"
        write_records(path, mixed)
        code = main(
            [
                "estimate", "--records", str(path),
                "--nmax", "2", "--phases", "5", "--bins", "4",
            ]
        )
        assert code == EXIT_DATA
        assert "mode" in capsys.readouterr().err


class TestEstimateLocalRecords:
    def test_duplicate_shot_mode_raises_at_second_occurrence(self, local_33):
        cfg, table = local_33
        n_op = number_operator(1)
        recs = records_of([(0, 0, 0, 0), (0, 1, 1, 1), (0, 0, 2, 2)])
        with pytest.raises(MalformedRecordError) as excinfo:
            estimate_local(recs, cfg, {0: table, 1: table}, {0: n_op, 1: n_op})
        assert excinfo.value.ordinal == 2

    def test_shot_order_does_not_matter(self, local_33):
        cfg, table = local_33
        n_op = number_operator(1)
        dist = joint_distribution([fock(1, 1), fock(0, 1)], cfg)
        recs = sample_multi(dist, 500, seed=8)
        perm = np.random.default_rng(2).permutation(len(recs))
        shuffled = Records(*(c[perm] for c in recs.columns()))
        a = estimate_local(recs, cfg, {0: table, 1: table}, {0: n_op, 1: n_op})
        b = estimate_local(shuffled, cfg, {0: table, 1: table}, {0: n_op, 1: n_op})
        assert (a.mean, a.stderr, a.shots) == (b.mean, b.stderr, b.shots)

    def test_product_follows_sorted_modes(self, local_33):
        cfg, table = local_33
        n_op = number_operator(1)
        vals = snapshot_values(table, n_op)
        recs = records_of([(3, 1, 2, 0), (3, 0, 1, 2), (0, 0, 0, 1), (0, 1, 1, 1)])
        rep = estimate_local(recs, cfg, {0: table, 1: table}, {0: n_op, 1: n_op})
        v0 = 1.0 * vals[1, 0] * vals[1, 1]
        v3 = 1.0 * vals[2, 1] * vals[0, 2]
        assert rep.mean == np.mean([v0, v3])
        assert rep.shots == 2


class TestMedianOfMeansBatches:
    def test_label_reports_effective_batches(self, setup_223):
        _, table = setup_223
        n_op = number_operator(2)
        recs = records_of([(t, 0, t % 5, t % 4) for t in range(6)])
        mom = estimate_observable(recs, table, n_op, variant="median-of-means:10")
        plain = estimate_observable(recs, table, n_op)
        assert mom.variant == "median-of-means:6"
        assert mom.stderr == plain.stderr
        assert estimate_observable(recs, table, n_op, variant="median-of-means:4").variant == (
            "median-of-means:4"
        )

    def test_local_label_reports_effective_batches(self, local_33):
        cfg, table = local_33
        recs = records_of([(t, j, 0, 0) for t in range(3) for j in range(2)])
        rep = estimate_local(recs, cfg, {}, {}, variant="median-of-means")
        assert rep.variant == "median-of-means:3"

    def test_variant_is_the_only_batch_setting(self, setup_223, local_33):
        # A separate batch-count argument could contradict the inline one.
        _, table = setup_223
        n_op = number_operator(2)
        recs = records_of([(t, 0, t % 5, t % 4) for t in range(12)])
        rep = estimate_observable(recs, table, n_op, variant="median-of-means")
        assert rep.variant == "median-of-means:%d" % DEFAULT_BATCHES
        with pytest.raises(TypeError):
            estimate_observable(recs, table, n_op, variant="median-of-means:5", batches=20)
        cfg, _ = local_33
        local = records_of([(t, j, 0, 0) for t in range(3) for j in range(2)])
        with pytest.raises(TypeError):
            estimate_local(local, cfg, {}, {}, variant="median-of-means:5", batches=20)


# A stream of three whole blocks and a partial one; T mod 7 = 5, so the
# bounds of seven median-of-means batches fall inside blocks.
_FOLD_T = 3 * _BLOCK + 100
_FOLD_ORDINALS = [_BLOCK - 1, _BLOCK, _BLOCK + 1, _FOLD_T - 2]


def _whole_stream_error(records, M, N):
    """(message, ordinal) of the single-mode rules applied to all rows at once."""
    _, mode, k, i = records.columns()
    rules = [
        ((i >= M) | (k >= N), lambda j: "references outcome (i=%d, k=%d) outside the "
         "%d x %d outcome grid" % (i[j], k[j], M, N)),
        (mode != mode[0], lambda j: "has mode %d but the stream began with mode %d; a "
         "single-mode estimate takes one mode at a time" % (mode[j], mode[0])),
    ]
    j = min(int(np.argmax(mask)) for mask, _ in rules if mask.any())
    describe = next(message for mask, message in rules if mask[j])
    return "record %d %s" % (j, describe(j)), j


def _whole_stream_counts(records, M, N, B):
    """Count tables of the B batches of ``np.array_split``, from one index array."""
    flat = records.i * N + records.k
    return [np.bincount(part, minlength=M * N) for part in np.array_split(flat, B)]


def _whole_stream_estimate(records, table, X, B):
    """(mean, stderr) of the count-table estimator, folded from whole-stream counts."""
    T = len(records)
    v = snapshot_values(table, X).ravel()
    tables = _whole_stream_counts(records, table.M, table.N, B)
    counts = sum(tables)
    means = [c @ v / c.sum() for c in tables]
    plain = counts @ v / T
    return float(np.median(means)), math.sqrt(counts @ (v - plain) ** 2 / (T - 1) / T)


def _crlf_copy(path, out):
    """Write ``path`` with CRLF line ends to ``out``: numpy then parses each of its pieces."""
    out.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    return out


class _NumpyParse(Exception):
    """Raised in place of numpy's parse of a piece, by :func:`_decoded_records`."""


def _decoded_records(path):
    """The Records that ``ingest_records`` gives when the decoder reads every piece, else None.

    numpy's parse of a piece (``records._parsed_fields``) is swapped for
    one that raises, so a file with a piece outside write_records' exact
    format gives None.
    """
    def parse(piece, dtype):
        raise _NumpyParse

    with mock.patch.object(records_mod, "_parsed_fields", parse):
        try:
            return ingest_records(path)
        except _NumpyParse:
            return None


def _traced_peak(call):
    """Bytes that ``call()`` allocates at its peak, beyond what existed before."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockFold:
    """Single-mode consumers read streams ``_BLOCK`` rows at a time.

    Each result must equal the whole-stream reference bit for bit, and each
    bad record must raise the reference's message and ordinal, wherever it
    falls relative to the block and batch bounds.  The streams are sampled,
    decoded from a written file and parsed by numpy from a CRLF copy of it;
    both paths fill the same narrow contiguous columns.
    """

    @pytest.fixture(scope="class")
    def streams(self, setup_223, tmp_path_factory):
        povm, _ = setup_223
        sampled = sample(outcome_distribution(fock(1, 2), povm), _FOLD_T, seed=17, mode=3)
        path = tmp_path_factory.mktemp("fold") / "records.csv"
        write_records(path, sampled)
        crlf = _crlf_copy(path, path.with_suffix(".crlf.csv"))
        return {"sampled": sampled, "ingested": ingest_records(path), "crlf": ingest_records(crlf)}

    def test_columns_are_views(self, streams):
        assert streams["sampled"].mode.strides == (0,)
        decoded = streams["ingested"]
        for rec in (decoded, streams["crlf"]):  # no parsed row outlives its block
            for name in ("t", "k", "i"):
                col = getattr(rec, name)
                assert col.flags.c_contiguous and col.dtype == getattr(decoded, name).dtype
            assert rec.mode.strides == (0,) and not rec.mode.flags.writeable

    @pytest.mark.parametrize("source", ["sampled", "ingested", "crlf"])
    def test_results_equal_whole_stream_fold(self, setup_223, streams, source):
        _, table = setup_223
        rec, X = streams[source], number_operator(2)
        for variant, B in [("plain-mean", 1), ("median-of-means:7", 7), ("median-of-means", 10)]:
            est = estimate_observable(rec, table, X, variant=variant)
            assert (est.mean, est.stderr) == _whole_stream_estimate(rec, table, X, B), variant
            assert est.shots == _FOLD_T
        (counts,) = _whole_stream_counts(rec, table.M, table.N, 1)
        expected = exact_average_snapshot(counts.reshape(table.M, table.N) / _FOLD_T, table)
        assert np.array_equal(reconstruct_state(rec, table), expected)

    @pytest.mark.parametrize("source", ["sampled", "ingested", "crlf"])
    # On the 4 x 5 grid of setup_223, in a stream of mode 3.
    @pytest.mark.parametrize("name, value", [("i", 4), ("k", 7), ("mode", 1)],
                             ids=["bin", "phase", "mode"])
    @pytest.mark.parametrize("ordinal", _FOLD_ORDINALS)
    def test_bad_record_names_the_whole_stream_ordinal(
        self, setup_223, streams, source, name, value, ordinal, tmp_path
    ):
        _, table = setup_223
        rec = streams[source]
        cols = dict(zip(RECORD_HEADER, rec.columns()))
        cols[name] = cols[name].copy()
        cols[name][ordinal] = value
        bad = Records(*cols.values())
        if source != "sampled":
            write_records(tmp_path / "bad.csv", bad)
            if source == "crlf":
                _crlf_copy(tmp_path / "bad.csv", tmp_path / "bad.csv")
            bad = ingest_records(tmp_path / "bad.csv")
        message, expected = _whole_stream_error(bad, table.M, table.N)
        assert expected == ordinal
        calls = [
            lambda: checked_records(bad, table.M, table.N),
            lambda: estimate_observable(bad, table, number_operator(2)),
            lambda: estimate_observable(bad, table, number_operator(2), "median-of-means:7"),
            lambda: reconstruct_state(bad, table),
        ]
        for call in calls:
            with pytest.raises(MalformedRecordError, match="^%s$" % re.escape(message)) as exc:
                call()
            assert exc.value.ordinal == ordinal

    def test_sampled_mode_is_one_read_only_value(self, setup_223):
        povm, _ = setup_223
        rec = sample(outcome_distribution(fock(1, 2), povm), 10, seed=1, mode=2)
        assert rec.mode.tolist() == [2] * 10 and rec.mode.strides == (0,)
        with pytest.raises(ValueError, match="read-only"):
            rec.mode[0] = 1
        with pytest.raises(MalformedRecordError):
            sample(outcome_distribution(fock(1, 2), povm), 10, seed=1, mode=1.5)


class TestFoldMemory:
    """At T = 10**6 rows no consumer holds a stream-sized temporary.

    A producer's stream holds 3 narrow columns: uint32 t, uint8 k and i
    (5.7 MiB, where int64 columns took 22.9 MiB).
    """

    T = 10**6

    @pytest.fixture(scope="class")
    def stream(self, setup_223):
        povm, _ = setup_223
        return sample(outcome_distribution(fock(1, 2), povm), self.T, seed=4)

    @pytest.fixture(scope="class")
    def raw_path(self, tmp_path_factory):
        """10**6 raw rows t,0,k,x with x inside the edges, so strict-finite drops none."""
        x = np.linspace(-1.9, 1.9, 1000)
        lines = ["%d,0,%d,%.4f\n" % (j, j % 5, v) for j, v in enumerate(x)]
        path = tmp_path_factory.mktemp("raw") / "raw.csv"
        path.write_text("t,mode,k,x\n" + "".join(lines) * (self.T // 1000))
        return path

    @pytest.mark.parametrize("variant", ["plain-mean", "median-of-means"])
    def test_estimate_peak(self, setup_223, stream, variant):
        _, table = setup_223
        X = number_operator(2)
        peak = _traced_peak(lambda: estimate_observable(stream, table, X, variant=variant))
        assert peak <= 2 * 2**20  # a stream-sized int64 index alone is 7.6 MiB

    def test_reconstruct_peak(self, setup_223, stream):
        _, table = setup_223
        assert _traced_peak(lambda: reconstruct_state(stream, table)) <= 2 * 2**20

    def test_sampled_records_hold_three_columns(self, setup_223):
        povm, _ = setup_223
        dist = outcome_distribution(fock(1, 2), povm)
        tracemalloc.start()
        try:
            rec = sample(dist, self.T, seed=4)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(rec) == self.T
        assert held <= 6.5 * 2**20  # t, k and i; the mode column is one value

    # The decoded file; its CRLF copy, which numpy parses a piece at a time;
    # its CR-only copy, whose columns grow as it holds no '\n' to count; and
    # a copy whose last line alone ends in CRLF, decoded but for its last piece.
    @pytest.mark.parametrize("ending", ["canonical", "crlf", "cr-only", "crlf-last-line"])
    def test_ingest_holds_three_columns(self, setup_223, ending, tmp_path):
        povm, _ = setup_223
        path = tmp_path / "records.csv"
        write_records(path, sample(outcome_distribution(fock(1, 2), povm), self.T, seed=4))
        if ending == "crlf":
            _crlf_copy(path, path)
        elif ending == "cr-only":
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        elif ending == "crlf-last-line":
            path.write_bytes(path.read_bytes()[:-1] + b"\r\n")
        tracemalloc.start()
        try:
            rec = ingest_records(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rec) == self.T
        assert held <= 6.5 * 2**20  # t, k and i; the mode column is one value
        # Narrow columns: t widens once from uint16 (2 MiB beside its uint32
        # successor), and a piece's temporaries are under 0.5 MiB.
        assert peak <= held + 2.5 * 2**20

    def test_sampled_multi_mode_records_hold_narrow_columns(self, setup_223):
        povm, _ = setup_223
        dist = joint_distribution([fock(1, 2)] * 2, MultiModeConfig([povm, povm]))
        tracemalloc.start()
        try:
            rec = sample_multi(dist, self.T // 2, seed=4)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(rec) == self.T
        assert held <= 7.5 * 2**20  # uint32 t, uint8 mode, k and i

    def test_local_estimate_peak(self, setup_223):
        povm, table = setup_223
        cfg = MultiModeConfig([povm, povm])
        rec = sample_multi(joint_distribution([fock(1, 2)] * 2, cfg), self.T // 2, seed=4)
        X = number_operator(2)
        peak = _traced_peak(lambda: estimate_local(rec, cfg, {0: table, 1: table}, {0: X, 1: X}))
        assert peak <= 5 * 2**20  # the per-shot values (3.8 MiB), with np.std's steps in place

    @pytest.mark.parametrize("tail_mode", ["extend-tails", "strict-finite"])
    def test_bin_raw_peak(self, tail_mode, raw_path):
        binning = BinningScheme.equal_spaced(4, 2.0, tail_mode=tail_mode)
        tracemalloc.start()
        try:
            rec, dropped = bin_raw(raw_path, PhaseGrid(5), binning)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(rec), dropped) == (self.T, 0.0)
        # The result and one piece of 2**16 bytes: its text, parsed rows and bins.
        assert peak <= held + 2 * 2**20

    def test_bin_raw_peak_when_rows_drop(self, raw_path):
        binning = BinningScheme.equal_spaced(4, 1.5, tail_mode="strict-finite")
        tracemalloc.start()
        try:
            rec, dropped = bin_raw(raw_path, PhaseGrid(5), binning)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rec) == self.T - round(dropped * self.T) and 0.1 < dropped < 0.11
        assert peak <= held + 2 * 2**20  # the kept rows fill columns grown block by block

    @pytest.mark.parametrize("variant", ["plain-mean", "median-of-means:7"])
    def test_cli_estimate_peak(self, setup_223, stream, variant, tmp_path, capsys):
        povm, _ = setup_223
        save_povm(povm, tmp_path / "scheme.json")
        write_records(tmp_path / "records.csv", stream)
        argv = ["estimate", "--records", str(tmp_path / "records.csv"),
                "--scheme", str(tmp_path / "scheme.json"), "--variant", variant]
        assert main(argv) == EXIT_OK  # a first run builds the caches of the POVM code
        capsys.readouterr()
        # The ingested columns (5.7 MiB) at the ingest's own peak, as in
        # test_ingest_holds_three_columns; the estimate adds only count tables
        # (9.7 MiB when the ingest joined narrow pieces).
        assert _traced_peak(lambda: main(argv)) <= 8.5 * 2**20
        assert "over %d shots" % self.T in capsys.readouterr().out

    @pytest.mark.parametrize("tail_mode", ["extend-tails", "strict-finite"])
    def test_bin_raw_holds_narrow_copies(self, tail_mode, raw_path):
        binning = BinningScheme.equal_spaced(4, 2.0, tail_mode=tail_mode)
        tracemalloc.start()
        try:
            rec, _ = bin_raw(raw_path, PhaseGrid(5), binning)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(rec) == self.T
        # uint16 t, uint8 mode, k and i: views would keep the parsed rows (30.5 MiB).
        assert held <= 8 * 2**20
        assert [c.dtype for c in rec.columns()] == [np.uint16] + [np.uint8] * 3


# A grid whose outcome index i*N + k reaches 299, beyond uint8, while i and
# k fit in it: n_max = 1, N = 3, M = 100.
_WIDE_N, _WIDE_M = 3, 100


@pytest.fixture(scope="module")
def wide_grid():
    povm = build_povm(PhaseGrid(_WIDE_N), design_bins(1, _WIDE_N, _WIDE_M), 1)
    return povm, snapshots(povm, invert_frame(frame_operator(povm)))


def _narrow_copy(draw, c):
    """A copy of index column ``c`` in an unsigned dtype, drawn from those that hold it."""
    fits = [d for d in (np.uint8, np.uint16, np.uint32) if int(c.max()) <= np.iinfo(d).max]
    return c.astype(draw(st.sampled_from(fits)))


@st.composite
def _narrow_and_wide(draw, S):
    """(narrow, wide): one stream of S modes a shot as uint columns and as int64 copies.

    Shots are in (t, mode) order; on the wide grid, and the last row's
    outcome index i*N + k is 299.
    """
    T = draw(st.integers(1, 120))
    k, i = (np.array(draw(st.lists(st.integers(0, top - 1), min_size=T * S, max_size=T * S)))
            for top in (_WIDE_N, _WIDE_M))
    k[-1], i[-1] = _WIDE_N - 1, _WIDE_M - 1
    first_t = draw(st.sampled_from([0, 250, 70_000, 2**32 - 121]))
    mode = np.tile(np.arange(S), T) if S > 1 else np.full(T, draw(st.sampled_from([0, 7, 300])))
    cols = [np.repeat(np.arange(first_t, first_t + T), S), mode, k, i]
    narrow = Records(*(_narrow_copy(draw, c) for c in cols))
    assert all(c.dtype.kind == "u" and c.itemsize < 8 for c in narrow.columns())
    return narrow, Records(*(c.astype(np.int64) for c in cols))


class TestNarrowColumns:
    """A stream in narrow unsigned columns gives what its int64 copy gives, bit for bit.

    Every sum and product of columns is formed in intp: in uint8 the outcome
    index 99*3 + 2 of the wide grid would wrap to 43.
    """

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_single_mode_results_and_bytes(self, wide_grid, data):
        _, table = wide_grid
        narrow, wide = data.draw(_narrow_and_wide(1))
        X = number_operator(1)
        for variant in ("plain-mean", "median-of-means:7"):
            a, b = (estimate_observable(r, table, X, variant=variant) for r in (narrow, wide))
            assert (a.mean, a.stderr, a.shots, a.variant) == (b.mean, b.stderr, b.shots, b.variant)
        assert np.array_equal(reconstruct_state(narrow, table), reconstruct_state(wide, table))
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / name for name in ("narrow.csv", "wide.csv")]
            for path, rec in zip(paths, (narrow, wide)):
                write_records(path, rec)
            assert paths[0].read_bytes() == paths[1].read_bytes()
            assert ingest_records(paths[0]) == wide
        assert narrow == wide

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_local_estimate(self, wide_grid, data):
        povm, table = wide_grid
        cfg = MultiModeConfig([povm, povm])
        narrow, wide = data.draw(_narrow_and_wide(2))
        tables, obs = {0: table, 1: table}, {0: number_operator(1), 1: number_operator(1)}
        for variant in ("plain-mean", "median-of-means:7"):
            a, b = (estimate_local(r, cfg, tables, obs, variant=variant) for r in (narrow, wide))
            assert (a.mean, a.stderr, a.shots, a.variant) == (b.mean, b.stderr, b.shots, b.variant)

    # name: (modes a shot, field, value, message after "record <ordinal> ").
    # One mode is checked on the 100 x 3 grid, two on two copies of it; a
    # repeat (field None) copies the (t, mode) of the row before.
    _FAULTS = {
        "bin": (1, "i", _WIDE_M,
                "references outcome (i=100, k=%(k)d) outside the 100 x 3 outcome grid"),
        "phase": (1, "k", _WIDE_N,
                  "references outcome (i=%(i)d, k=3) outside the 100 x 3 outcome grid"),
        "mode": (1, "mode", 1, "has mode 1 but the stream began with mode 0; a single-mode "
                 "estimate takes one mode at a time"),
        "mode-range": (2, "mode", 2, "references mode 2 outside 0..1"),
        "repeat": (2, None, None, "repeats mode %(mode)d of shot %(t)d"),
    }

    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    @pytest.mark.parametrize("ordinal", _FOLD_ORDINALS)
    def test_fault_message_and_ordinal(self, fault, ordinal):
        S, field, value, message = self._FAULTS[fault]
        rng = np.random.default_rng(ordinal)
        rows = np.arange(_FOLD_T)
        cols = {"t": rows // S, "mode": rows % S, "k": rng.integers(0, _WIDE_N, _FOLD_T),
                "i": rng.integers(0, _WIDE_M, _FOLD_T)}
        if field is None:
            for name in ("t", "mode"):
                cols[name][ordinal] = cols[name][ordinal - 1]
        else:
            cols[field][ordinal] = value
        message = "record %d " % ordinal + message % {n: c[ordinal] for n, c in cols.items()}
        grids = (_WIDE_M, _WIDE_N) if S == 1 else ([_WIDE_M] * S, [_WIDE_N] * S)
        wide = Records(*(cols[n] for n in RECORD_HEADER))
        narrow = Records(*(_narrowed(c) for c in wide.columns()))
        assert [c.dtype for c in narrow.columns()[1:]] == [np.uint8] * 3
        for rec in (narrow, wide):
            with pytest.raises(MalformedRecordError, match="^%s$" % re.escape(message)) as excinfo:
                checked_records(rec, *grids)
            assert excinfo.value.ordinal == ordinal

    def test_uint64_input_is_compared_as_int64(self):
        top = Records(*[np.array([2**63 - 1], dtype=np.uint64)] * 4)
        below = Records(*[np.array([2**63 - 2], dtype=np.int64)] * 4)
        assert (top == below) is False
        assert (top == Records(*[np.array([2**63 - 1], dtype=np.int64)] * 4)) is True

    def test_producers_give_narrow_columns(self, setup_223, tmp_path):
        povm, _ = setup_223
        rec = sample(outcome_distribution(fock(1, 2), povm), 300, seed=1)
        assert [c.dtype for c in (rec.t, rec.k, rec.i)] == [np.uint16, np.uint8, np.uint8]
        multi = sample_multi(joint_distribution([fock(1, 2)] * 2, MultiModeConfig([povm] * 2)),
                             300, seed=1)
        assert [c.dtype for c in multi.columns()] == [np.uint16] + [np.uint8] * 3
        path = tmp_path / "records.csv"
        write_records(path, Records(np.arange(3) + 2**32, [0, 0, 0], [0, 1, 2], [300, 2, 1]))
        back = ingest_records(path)
        assert [c.dtype for c in (back.t, back.k, back.i)] == [np.int64, np.uint8, np.uint16]


class TestRecordFormat:
    def test_golden_simulate_bytes(self, tmp_path):
        out = tmp_path / "golden.csv"
        code = main(
            [
                "simulate", "--nmax", "3", "--phases", "7", "--bins", "5",
                "--state", "fock:2", "--T", "2000", "--seed", "424242",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SIMULATE_SHA256

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=2**63 - 1)] * 4),
            max_size=40,
        )
    )
    def test_write_ingest_round_trip(self, rows):
        rec = Records(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            write_records(path, rec)
            assert path.read_text() == "t,mode,k,i\n" + "".join(
                "%d,%d,%d,%d\n" % row for row in rows
            )
            back = ingest_records(path)
        assert back == rec
        assert back == records_of(rows)

    def test_blank_lines_and_padded_fields(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("t,mode,k,i\n0, 0 ,1,2\n\n 1,0,3 , 4\n\n")
        assert ingest_records(path) == records_of([(0, 0, 1, 2), (1, 0, 3, 4)])
        path.write_text("\n\n")
        assert ingest_records(path) == records_of([])

    def test_bad_row_after_blank_lines_reports_its_file_line(self, tmp_path):
        path = tmp_path / "records.csv"
        for body, line in [
            ("0,0,1,2\n\n\n1,0,x,4\n", 5),
            ("0,0,1,2\n\n1,0,1\n", 4),
            ("\n0,0,1,2\n\n\n1,0,-3,4\n", 6),
        ]:
            path.write_text("t,mode,k,i\n" + body)
            with pytest.raises(MalformedRecordError) as excinfo:
                ingest_records(path)
            assert excinfo.value.ordinal == line, body

    def test_field_outside_int64_is_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("t,mode,k,i\n0,0,1,2\n\n1,0,1,99999999999999999999\n")
        with pytest.raises(MalformedRecordError) as excinfo:
            ingest_records(path)
        assert excinfo.value.ordinal == 4

    def test_bin_raw_bad_row_after_blank_line(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("t,mode,k,x\n0,0,0,0.5\n\n1,0,0,inf\n")
        with pytest.raises(MalformedRecordError) as excinfo:
            bin_raw(path, PhaseGrid(2), BinningScheme([-1.0, 0.0, 1.0]))
        assert excinfo.value.ordinal == 4
        path.write_text("t,mode,k,x\n0,0,0,0.5\n\n1,0,0,0.2\n")
        recs, dropped = bin_raw(path, PhaseGrid(2), BinningScheme([-1.0, 0.0, 1.0]))
        assert isinstance(recs, Records) and recs == records_of([(0, 0, 0, 1), (1, 0, 0, 1)])

    def test_producers_return_records(self, setup_223):
        povm, _ = setup_223
        dist = outcome_distribution(fock(1, 2), povm)
        assert isinstance(sample(dist, 5, seed=1), Records)
        config = MultiModeConfig([povm, povm])
        assert isinstance(sample_multi(joint_distribution([fock(0, 2)] * 2, config), 5, 1),
                          Records)


# Field values on either side of every digit-count boundary, plus the extremes.
_EDGE_VALUES = [0, 2**63 - 1] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)]
_field = st.one_of(st.sampled_from(_EDGE_VALUES), st.integers(0, 2**63 - 1))


def _column(T):
    return st.one_of(st.lists(_field, min_size=T, max_size=T), st.just([0] * T))


def _percent_d(cols):
    """The per-row ``%d`` formatting that the byte encoder replaces."""
    block = np.column_stack(cols)
    return "%d,%d,%d,%d\n" * len(block) % tuple(block.ravel().tolist())


class TestRecordEncoder:
    """``write_records`` bytes equal ``"%d,%d,%d,%d\n"`` formatting of each row."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda T: st.tuples(*[_column(T)] * 4)))
    def test_bytes_equal_percent_d(self, cols):
        cols = [np.array(c, dtype=np.int64) for c in cols]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            write_records(path, Records(*cols))
            assert path.read_bytes() == ("t,mode,k,i\n" + _percent_d(cols)).encode()

    @pytest.mark.parametrize("T", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_chunk_boundaries(self, T, tmp_path):
        rng = np.random.default_rng(T)
        cols = [
            np.arange(T),
            np.zeros(T, dtype=np.int64),
            rng.integers(0, 2**63 - 1, size=T, dtype=np.int64) >> rng.integers(0, 63, size=T),
            np.full(T, 10**9),
        ]
        path = tmp_path / "records.csv"
        write_records(path, Records(*cols))
        assert path.read_bytes() == ("t,mode,k,i\n" + _percent_d(cols)).encode()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(*[_field] * 4), max_size=30),
        st.integers(-35, 35) | st.none(),
        st.integers(-35, 35) | st.none(),
        st.sampled_from([None, 1, 2, 3, -1, -2]),
    )
    def test_any_slice_of_valid_records_writes(self, rows, start, stop, step):
        rec = Records(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)
        part = rec[start:stop:step]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            write_records(path, part)
            text = path.read_text()
        assert text == "t,mode,k,i\n" + "".join(
            "%d,%d,%d,%d\n" % row for row in rows[start:stop:step]
        )

    def test_empty_stream_writes_the_header(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, records_of([]))
        assert path.read_bytes() == b"t,mode,k,i\n"


def _reference_fields(buf):
    """The earlier decoder kernel: (4, n) int64 fields of canonical lines, or None.

    ',' (44) and '\\n' (10) are the only bytes below '0' (48) there, so one
    ``flatnonzero`` finds every field's end; fields are summed a place at a
    time.  The block decoder must accept and reject exactly what this does.
    """
    ends = np.flatnonzero(buf < 48)
    if ends.size % 4 or buf.max() > 57 or not (buf[ends].reshape(-1, 4) == [44, 44, 44, 10]).all():
        return None
    widths = np.diff(ends, prepend=-1)
    widths -= 1
    if widths.min() < 1 or widths.max() > 18:
        return None
    ends = ends.reshape(-1, 4).T.copy()
    widths = widths.reshape(-1, 4).T.copy()
    fields = np.zeros(ends.shape, dtype=np.int64)
    for out, end, width in zip(fields, ends, widths):
        W = int(width.max())
        for place in range(W):
            end -= 1
            byte = buf.take(end)
            if place >= width.min():
                byte[width <= place] = 48
            out += np.multiply(byte, 10**place, dtype=np.int64)
        out -= 48 * (10**W - 1) // 9
    return fields


# Bytes a mutation puts into a canonical file: the format's own, and bytes
# next to them or special to a CSV reader.
_MUTANT_BYTES = b"0123456789,\n\r \t+-./:;\"a\xff"


@st.composite
def _mutated_body(draw):
    """The body of a canonical record file, with a few bytes replaced, inserted or deleted."""
    rows = draw(st.lists(st.tuples(*[st.sampled_from(_EDGE_VALUES) | st.integers(0, 10**6)] * 4),
                         min_size=1, max_size=12))
    body = bytearray("".join("%d,%d,%d,%d\n" % row for row in rows).encode())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(body)))
        byte = draw(st.sampled_from(_MUTANT_BYTES))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "insert" or at == len(body):
            body.insert(at, byte)
        elif kind == "replace":
            body[at] = byte
        elif len(body) > 1:
            del body[at]
    return bytes(body)


class TestRecordDecoder:
    """Files in ``write_records``' exact format are decoded a piece of lines at a time.

    Each must give the Records that were written; a piece that leaves the
    format goes to numpy's parse instead.
    """

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(_field, st.sampled_from([0, 1, 7]), _field, _field), max_size=40),
           st.booleans())
    def test_round_trip(self, rows, one_mode):
        rows = [(t, 7 if one_mode else mode, k, i) for t, mode, k, i in rows]
        rec = Records(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            write_records(path, rec)
            back = ingest_records(path)
            decoded = _decoded_records(path)
        assert back == rec
        # A field of 19 digits leaves the format; fields of 1-18 digits do not.
        assert (decoded is None) == any(v >= 10**18 for row in rows for v in row)
        if decoded is not None and len(set(r[1] for r in rows)) == 1:
            assert decoded.mode.strides == (0,)

    # The header (11 bytes) and a first line that holds a t of d digits and an
    # i of 12 (d + 18 bytes) come first, then lines of 14 bytes, so the first
    # read of 2**16 bytes ends (1 - d) mod 14 bytes into a line: at a line's
    # end for d = 1 and d = 15, and just before it, its '\n' first in the
    # next read, for d = 2.
    @pytest.mark.parametrize("digits", [1, 2, 8, 14, 15])
    def test_line_straddling_a_piece_boundary(self, digits, tmp_path):
        assert _PIECE == 2**16
        T = 40_000
        t = np.arange(10**6, 10**6 + T)
        t[0] = 10 ** (digits - 1)
        i = t % 4
        i[0] = 10**11
        rec = Records(t, np.zeros(T, dtype=np.int64), t % 5, i)
        path = tmp_path / "records.csv"
        write_records(path, rec)
        decoded = ingest_records(path)
        assert decoded == rec and decoded.k.flags.c_contiguous
        body = bytearray(path.read_bytes())
        first = len("t,mode,k,i\n") + digits + 18
        assert (_PIECE - first) % 14 == (1 - digits) % 14
        assert body[first - 1:first] == b"\n"
        # A bad byte in the line that holds the boundary reaches numpy's parse,
        # and the error names that line.
        line = body.count(b"\n", 0, _PIECE) + 1
        start = body.rindex(b"\n", 0, _PIECE) + 1
        body[start + 10] = ord("x")  # the k digit of a 14-byte line
        path.write_bytes(body)
        with pytest.raises(MalformedRecordError) as excinfo:
            ingest_records(path)
        assert (str(excinfo.value), excinfo.value.ordinal) == (
            "line %d: k 'x' is not a 64-bit decimal integer" % line, line
        )

    # Lines of 14 bytes after the 11-byte header: the mode changes at the line
    # that holds the fourth read's last byte (row 18,723, the first of the
    # fifth piece), or inside the fifteenth piece.
    @pytest.mark.parametrize("change", [(4 * _PIECE - 12) // 14, 2 * _BLOCK + 5])
    def test_mode_that_changes_mid_file(self, setup_223, change, tmp_path):
        T = 3 * _BLOCK
        t = np.arange(10**6, 10**6 + T)
        rec = Records(t, np.where(t - 10**6 < change, 2, 0), t % 5, t % 4)
        path = tmp_path / "records.csv"
        write_records(path, rec)
        back = ingest_records(path)
        assert back == rec and back.mode.strides == (back.mode.itemsize,)
        with pytest.raises(MalformedRecordError, match="^record %d has mode 0 but the stream "
                           "began with mode 2" % change):
            estimate_observable(back, setup_223[1], number_operator(2))

    def test_broadcast_mode_wider_than_a_later_block(self, tmp_path):
        # Blocks of mode 300 (uint16, kept as one broadcast value) and then
        # of mode 1 (uint8): the mode column takes the wider dtype of the two.
        def block(mode, rows):
            return [np.arange(rows, dtype=np.uint32), np.full(rows, mode, np.uint32),
                    np.zeros(rows, np.uint32), np.ones(rows, np.uint32)]

        for capacity in (0, 5):
            rec = _filled_records([block(300, 3), block(1, 2)], capacity)
            assert rec.mode.tolist() == [300] * 3 + [1] * 2 and rec.mode.dtype == np.uint16
        # In a file: the first piece holds the lines of mode 300 (16 bytes
        # each after the 11-byte header), the second only lines of mode 1.
        first = (_PIECE - len("t,mode,k,i\n")) // 16
        t = np.arange(10**6, 10**6 + 2 * first)
        rec = Records(t, np.where(t < 10**6 + first, 300, 1), t % 5, t % 4)
        path = tmp_path / "records.csv"
        write_records(path, rec)
        back = _decoded_records(path)
        assert back == rec and back.mode.dtype == np.uint16

    def test_multi_mode_stream_round_trip(self, local_33, tmp_path):
        cfg, table = local_33
        rec = sample_multi(joint_distribution([fock(1, 1), fock(0, 1)], cfg), 50_000, seed=5)
        path = tmp_path / "records.csv"
        write_records(path, rec)
        back = ingest_records(path)
        assert back == rec and back.mode.flags.c_contiguous
        n_op = number_operator(1)
        tables, obs = {0: table, 1: table}, {0: n_op, 1: n_op}
        a, b = (estimate_local(r, cfg, tables, obs) for r in (rec, back))
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    @settings(max_examples=300, deadline=None)
    @given(_mutated_body())
    def test_kernel_accepts_what_the_earlier_one_did(self, body):
        body = body[:body.rfind(b"\n") + 1]  # the decoder's cut at a piece's last line
        if not body:
            return
        fields = _decoded_fields(np.frombuffer(b"\n" + body, np.uint8))
        expected = _reference_fields(np.frombuffer(body, np.uint8))
        assert (fields is None) == (expected is None)
        if fields is not None:
            assert all(f.dtype in (np.uint32, np.int64) for f in fields)
            assert all(np.array_equal(f, e) for f, e in zip(fields, expected))

    @settings(max_examples=300, deadline=None)
    @given(_mutated_body())
    def test_file_decoded_as_the_earlier_kernel_accepts(self, body):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            path.write_bytes(b"t,mode,k,i\n" + body)
            decoded = _decoded_records(path)
            cut = body.rfind(b"\n") + 1
            whole = cut == len(body) and _reference_fields(np.frombuffer(body, np.uint8))
            assert (decoded is None) == (whole is None or whole is False)
            if decoded is not None:
                assert decoded == Records(*whole) == ingest_records(path)

    @pytest.mark.parametrize("body, rows", [
        (b"t,mode,k,i\n", []),
        (b"t,mode,k,i\n007,0,01,2\n", [(7, 0, 1, 2)]),
        (b"t,mode,k,i\n999999999999999999,0,1,2\n", [(10**18 - 1, 0, 1, 2)]),
    ], ids=["header-only", "leading-zeros", "18-digit"])
    def test_canonical_edge_files(self, body, rows, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(body)
        assert _decoded_records(path) == ingest_records(path) == records_of(rows)


class TestLocalBlockFold:
    """``estimate_local`` folds a (t, mode)-sorted stream in blocks cut at shot starts.

    Three modes, so _BLOCK rows end inside a shot (2**15 mod 3 = 2).
    """

    SHOTS = _BLOCK + 500  # three blocks of rows

    @pytest.fixture(scope="class")
    def local(self, setup_223):
        povm, table = setup_223
        cfg = MultiModeConfig([povm] * 3)
        dist = joint_distribution([fock(1, 2), fock(0, 2), fock(2, 2)], cfg)
        return cfg, {j: table for j in range(3)}, sample_multi(dist, self.SHOTS, seed=6)

    @pytest.mark.parametrize("V", [[0], [0, 2], [0, 1, 2], []])
    def test_values_equal_whole_stream_product(self, setup_223, local, V):
        _, table = setup_223
        cfg, tables, rec = local
        vals = snapshot_values(table, number_operator(2))
        # Each shot's three rows in ascending mode, multiplied left to right.
        v = np.where(np.isin(rec.mode, V), vals[rec.i, rec.k], 1.0).reshape(-1, 3)
        values = v[:, 0] * v[:, 1] * v[:, 2]
        obs = {j: number_operator(2) for j in V}
        for variant, B in [("plain-mean", 1), ("median-of-means:7", 7)]:
            est = estimate_local(rec, cfg, tables, obs, variant=variant)
            mean = np.median([np.mean(c) for c in np.array_split(values, B)])
            stderr = np.std(values, ddof=1) / math.sqrt(self.SHOTS)
            assert (est.mean, est.stderr, est.shots) == (mean, stderr, self.SHOTS), variant

    # Rows _BLOCK - 1 and _BLOCK are modes 1 and 2 of one shot: swapped, the
    # stream is out of order only across the first block's last step.
    @pytest.mark.parametrize("row", [_BLOCK - 2, _BLOCK - 1, _BLOCK])
    def test_stream_out_of_order_at_one_step(self, local, row):
        cfg, tables, rec = local
        perm = np.arange(len(rec))
        perm[[row, row + 1]] = row + 1, row
        swapped = Records(*(c[perm] for c in rec.columns()))
        obs = {j: number_operator(2) for j in range(3)}
        a, b = (estimate_local(r, cfg, tables, obs) for r in (rec, swapped))
        assert (a.mean, a.stderr, a.shots) == (b.mean, b.stderr, b.shots)

    @pytest.mark.parametrize("row", [_BLOCK - 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * SHOTS - 1])
    def test_missing_row_names_its_shot(self, local, row):
        cfg, tables, rec = local
        keep = np.arange(len(rec)) != row
        gap = Records(*(c[keep] for c in rec.columns()))
        obs = {j: number_operator(2) for j in range(3)}
        with pytest.raises(MalformedRecordError, match="^shot %d has no record for mode %d$"
                           % (row // 3, row % 3)) as excinfo:
            estimate_local(gap, cfg, tables, obs)
        assert excinfo.value.ordinal == row // 3

    @pytest.mark.parametrize("row", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * SHOTS - 1])
    @pytest.mark.parametrize("field, value, message", [
        ("mode", 3, "references mode 3 outside 0..2"),
        ("i", 4, "references outcome (i=4, k=%d) outside mode %d's 4 x 5 grid"),
    ], ids=["mode", "bin"])
    def test_rule_names_the_row_before_an_earlier_gap(self, local, row, field, value, message):
        cfg, tables, rec = local
        cols = dict(zip(RECORD_HEADER, (c.copy() for c in rec.columns())))
        cols[field][row] = value
        if field == "i":
            message %= (cols["k"][row], cols["mode"][row])
        keep = np.arange(len(rec)) != 4  # shot 1 lacks mode 1, but rules come first
        bad = Records(*(c[keep] for c in cols.values()))
        obs = {j: number_operator(2) for j in range(3)}
        for call in (lambda: checked_records(bad, [4] * 3, [5] * 3),
                     lambda: estimate_local(bad, cfg, tables, obs)):
            with pytest.raises(MalformedRecordError, match="^record %d %s$"
                               % (row - 1, re.escape(message))) as excinfo:
                call()
            assert excinfo.value.ordinal == row - 1



# Edge-case record files: the records, or the error text and file line, that
# the line-by-line reader gave before ingest moved to numpy's block reader.
_INGEST_CASES = {
    "crlf": (b"t,mode,k,i\r\n0,0,1,2\r\n1,0,3,4\r\n", [(0, 0, 1, 2), (1, 0, 3, 4)]),
    "cr-only": (b"t,mode,k,i\r0,0,1,2\r1,0,3,4\r", [(0, 0, 1, 2), (1, 0, 3, 4)]),
    "mixed-endings": (
        b"t,mode,k,i\r\n0,0,1,2\n1,0,3,4\r5,0,1,1\n",
        [(0, 0, 1, 2), (1, 0, 3, 4), (5, 0, 1, 1)],
    ),
    "quoted-fields": (b't,mode,k,i\n"0","0",1,"2"\n1,0,"3",4\n', [(0, 0, 1, 2), (1, 0, 3, 4)]),
    "quoted-header": (b'"t","mode","k","i"\n0,0,1,2\n', [(0, 0, 1, 2)]),
    "space-padded": (b"t,mode,k,i\n 0 , 0,1 ,2\n", [(0, 0, 1, 2)]),
    "tab-padded": (b"t,mode,k,i\n\t0,0\t,1,2\n", [(0, 0, 1, 2)]),
    "blank-lines": (
        b"t,mode,k,i\n\n0,0,1,2\n\n\n1,0,3,4\n\n",
        [(0, 0, 1, 2), (1, 0, 3, 4)],
    ),
    "blank-line-1": (b"\n0,0,1,2\n1,0,3,4\n", [(0, 0, 1, 2), (1, 0, 3, 4)]),
    "no-final-newline": (b"t,mode,k,i\n0,0,1,2\n1,0,3,4", [(0, 0, 1, 2), (1, 0, 3, 4)]),
    "plus-zero": (b"t,mode,k,i\n+0,0,1,2\n", [(0, 0, 1, 2)]),
    "negative": (b"t,mode,k,i\n0,0,1,2\n1,-1,3,4\n", ("line 3: mode '-1' is negative", 3)),
    "over-int64": (
        b"t,mode,k,i\n0,0,1,2\n1,0,3,9223372036854775808\n",
        ("line 3: i '9223372036854775808' is not a 64-bit decimal integer", 3),
    ),
    "float": (
        b"t,mode,k,i\n0,0,1.0,2\n",
        ("line 2: k '1.0' is not a 64-bit decimal integer", 2),
    ),
    "underscore": (
        b"t,mode,k,i\n0,0,1_0,2\n",
        ("line 2: k '1_0' is not a 64-bit decimal integer", 2),
    ),
    "bom-header": (
        "\ufefft,mode,k,i\n0,0,1,2\n".encode("utf-8"),
        ("line 1: expected header t,mode,k,i, got '\\ufefft,mode,k,i'", 1),
    ),
    "short-row": (b"t,mode,k,i\n0,0,1,2\n1,0,3\n", ("line 3: expected 4 fields, got 3", 3)),
    "trailing-comma": (b"t,mode,k,i\n0,0,1,2,\n", ("line 2: expected 4 fields, got 5", 2)),
    "crlf-blank-only": (b"t,mode,k,i\r\n\r\n\r\n", []),
    # Only empty lines are skipped: a line of spaces is a row of one field.
    "whitespace-line": (
        b"t,mode,k,i\n0,0,1,2\n  \n1,0,3,4\n", ("line 3: expected 4 fields, got 1", 3)
    ),
    "whitespace-last-line": (b"t,mode,k,i\n0,0,1,2\n \n", ("line 3: expected 4 fields, got 1", 3)),
    "non-utf8": (b"t,mode,k,i\n0,0,\xff,2\n", ("line 2: byte 0xff is not UTF-8 text", 2)),
    "non-utf8-after-bad-row": (
        b"t,mode,k,i\n0,0,x,2\n1,0,\xc3,2\n", ("line 2: k 'x' is not a 64-bit decimal integer", 2)
    ),
    "non-utf8-header": (b"t,mode,\xe9,i\n0,0,1,2\n", ("line 1: byte 0xe9 is not UTF-8 text", 1)),
    "19-digit": (b"t,mode,k,i\n0,0,1,1234567890123456789\n", [(0, 0, 1, 1234567890123456789)]),
    "empty-field": (
        b"t,mode,k,i\n0,,1,2\n", ("line 2: mode '' is not a 64-bit decimal integer", 2)
    ),
    "five-fields": (b"t,mode,k,i\n0,0,1,2,3\n", ("line 2: expected 4 fields, got 5", 2)),
    "exponent": (
        b"t,mode,k,i\n0,0,1e3,2\n", ("line 2: k '1e3' is not a 64-bit decimal integer", 2)
    ),
    "no-header": (
        b"0,0,1,2\n1,0,3,4\n", ("line 1: expected header t,mode,k,i, got '0,0,1,2'", 1)
    ),
}
# The cases whose data lines are in write_records' exact format, after a line 1
# that holds the header in another form or is empty: the decoder reads them.
# numpy parses a piece of every other case that gives records.
_DECODED_CASES = {"blank-line-1", "quoted-header"}


class TestIngestEdgeCases:
    @pytest.mark.parametrize("name", sorted(_INGEST_CASES))
    def test_records_or_error_line(self, name, tmp_path):
        body, expected = _INGEST_CASES[name]
        path = tmp_path / "records.csv"
        path.write_bytes(body)
        if isinstance(expected, list):
            assert ingest_records(path) == records_of(expected)
            decoded = _decoded_records(path)
            assert decoded == (records_of(expected) if name in _DECODED_CASES else None)
            return
        message, line = expected
        with pytest.raises(MalformedRecordError) as excinfo:
            ingest_records(path)
        assert (str(excinfo.value), excinfo.value.ordinal) == (message, line)

    @pytest.mark.parametrize("suffix", [".bz2", ".gz", ".lzma", ".xz"])
    def test_plain_text_named_like_an_archive(self, suffix, tmp_path):
        path = tmp_path / ("records.csv" + suffix)
        path.write_bytes(b"t,mode,k,i\r\n0,0,1,2\r\n\r\n1,0,3,4\r\n")
        assert ingest_records(path) == records_of([(0, 0, 1, 2), (1, 0, 3, 4)])
        path.write_bytes(b"t,mode,k,i\n0,0,1,2\n\n1,0,x,4\n")
        with pytest.raises(MalformedRecordError) as excinfo:
            ingest_records(path)
        assert excinfo.value.ordinal == 4

    @pytest.mark.parametrize("body, message, line", [
        (b"t,mode,k,x\n0,0,\xff,2\n", "line 2: byte 0xff is not UTF-8 text", 2),
        (b"t,mode,k,x\n0,0,0,0.5\n1,0,0,0.\xb5\n", "line 3: byte 0xb5 is not UTF-8 text", 3),
        (b"t,mode,k,x\n0,0,0,0.5\n   \n1,0,0,0.5\n", "line 3: expected 4 fields, got 1", 3),
    ], ids=["non-utf8", "non-utf8-quadrature", "whitespace-line"])
    def test_bin_raw_error_line(self, body, message, line, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_bytes(body)
        with pytest.raises(MalformedRecordError) as excinfo:
            bin_raw(path, PhaseGrid(2), BinningScheme([-1.0, 0.0, 1.0]))
        assert (str(excinfo.value), excinfo.value.ordinal) == (message, line)

    @pytest.mark.parametrize("tail_mode", ["extend-tails", "strict-finite"])
    def test_bin_raw_across_blocks(self, tail_mode, tmp_path):
        # Lines of 20 bytes after the 11-byte header, read 2**16 bytes at a
        # time: the mode changes inside the second piece, t passes 2**16
        # inside the third, and blank lines follow the lines that hold the
        # first two reads' ends.
        def holding(byte):  # the row whose line holds a file byte, before any blank line
            return (byte - len("t,mode,k,x\n")) // 20

        T = holding(5 * _PIECE)
        j = np.arange(T)
        t = np.where(j < holding(5 * _PIECE // 2), j, j + 2**16)
        mode = (j >= holding(3 * _PIECE // 2)).astype(np.int64)
        k = j % 3
        x = np.array([float("%+.6f" % v) for v in 1.5 * np.sin(j)])  # about half past +-1
        lines = ["%05d,%d,%d,%+.6f\n" % row for row in zip(t, mode, k, x)]
        for at in (100, holding(_PIECE), holding(2 * _PIECE)):
            lines[at] += "\n"
        path = tmp_path / "raw.csv"
        path.write_text("t,mode,k,x\n" + "".join(lines))
        binning = BinningScheme([-1.0, -0.2, 0.3, 1.0], tail_mode)
        above = np.searchsorted(binning.edges, x, "right")
        if tail_mode == "extend-tails":
            above = np.clip(above, 1, 3)
        keep = (above > 0) & (above <= 3)
        recs, dropped = bin_raw(path, PhaseGrid(3), binning)
        assert recs == Records(t[keep], mode[keep], k[keep], above[keep] - 1)
        assert dropped == np.count_nonzero(~keep) / T and (dropped > 0.25) == (tail_mode != "extend-tails")
        assert [c.dtype for c in recs.columns()] == [np.uint32] + [np.uint8] * 3
        assert recs.mode.strides == (1,)
        bad = holding(7 * _PIECE // 2)  # inside the fourth piece, after the three blank lines
        lines[bad] = "5,0,9,0.0\n"
        path.write_text("t,mode,k,x\n" + "".join(lines))
        with pytest.raises(MalformedRecordError) as excinfo:
            bin_raw(path, PhaseGrid(3), binning)
        assert (str(excinfo.value), excinfo.value.ordinal) == (
            "line %d: k '9' is outside 0..2" % (bad + 5), bad + 5)

    # The first read of 2**16 bytes ends inside a quoted x whose first line
    # end is the read's last byte.  The field's `spans` lines end in the next
    # read (its '"' is that read's first byte for spans = 1), or after it.
    @pytest.mark.parametrize("spans", [1, 2, 8193, _PIECE + 1])
    def test_bin_raw_quoted_field_across_a_block_cut(self, spans, tmp_path):
        T = 3 * _PIECE // 10
        j = np.arange(T)
        lines = ["%d,0,%d,0.5\n" % (t, t % 2) for t in j]
        starts = np.cumsum([len("t,mode,k,x\n")] + [len(line) for line in lines])
        q = int(np.searchsorted(starts, _PIECE - 40))  # a line that starts 28-40 bytes before the cut
        quoted = '%d,0,%d,"-0.5' % (q, q % 2)
        lines[q] = quoted + "0" * (_PIECE - 1 - starts[q] - len(quoted)) + "\n" * spans + '"\n'
        body = "t,mode,k,x\n" + "".join(lines)
        assert body[_PIECE - 1] == "\n" and body.count('"', 0, _PIECE) == 1
        path = tmp_path / "raw.csv"
        path.write_text(body)
        recs, dropped = bin_raw(path, PhaseGrid(2), BinningScheme([-1.0, 0.0, 1.0]))
        i = np.ones(T, dtype=np.int64)
        i[q] = 0
        assert (recs, dropped) == (Records(j, np.zeros(T, dtype=np.int64), j % 2, i), 0.0)

    def test_cr_ends_a_piece_and_lf_begins_the_next(self, tmp_path):
        # '\r' line ends but one '\r\n', whose '\r' is the first read's last
        # byte: that read holds no '\n', so its piece ends at the '\r' and the
        # next begins with the '\n', which ends an empty line.
        t = np.arange(10**6, 10**6 + 3 * _PIECE // 14)
        rows = list(zip(t.tolist(), [0] * t.size, (t % 5).tolist(), (t % 4).tolist()))
        lines = ["%d,%d,%d,%d\r" % row for row in rows]  # 14 bytes each
        lines[0] = "0" * ((_PIECE - 1 - len("t,mode,k,i\r") - 13) % 14) + lines[0]
        body = ("t,mode,k,i\r" + "".join(lines)).encode()
        assert body[_PIECE - 1:_PIECE] == b"\r" and b"\n" not in body
        body = body[:_PIECE] + b"\n" + body[_PIECE:]
        path = tmp_path / "records.csv"
        path.write_bytes(body)
        assert ingest_records(path) == records_of(rows)
        # A bad field after the cut names its line: the '\r\n' ends one line.
        bad = body.count(b"\r", 0, _PIECE) + 5  # a line of the second piece
        start = [m.end() for m in re.finditer(rb"\r\n?", body)][bad - 2]
        path.write_bytes(body[:start + 10] + b"x" + body[start + 11:])  # its k digit
        with pytest.raises(MalformedRecordError) as excinfo:
            ingest_records(path)
        assert (str(excinfo.value), excinfo.value.ordinal) == (
            "line %d: k 'x' is not a 64-bit decimal integer" % bad, bad)

    @pytest.mark.parametrize("tail_mode", ["extend-tails", "strict-finite"])
    def test_bin_raw_crlf_and_blank_lines(self, tail_mode, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_bytes(b"t,mode,k,x\r\n0,0,0,0.5\r\n\r\n1,0,1, -2E0 \r\n2,0,1,-0.5")
        recs, dropped = bin_raw(path, PhaseGrid(2), BinningScheme([-1.0, 0.0, 1.0], tail_mode))
        if tail_mode == "extend-tails":
            assert (recs, dropped) == (records_of([(0, 0, 0, 1), (1, 0, 1, 0), (2, 0, 1, 0)]), 0.0)
        else:
            assert (recs, dropped) == (records_of([(0, 0, 0, 1), (2, 0, 1, 0)]), 1 / 3)
