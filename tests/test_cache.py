import copy
import datetime as dt
import functools
import inspect
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polab.errors import DataError
from polab.marketdata import cache as cache_mod
from polab.marketdata.cache import (
    MAGIC, CacheWriter, FeedStamp, iter_blocks, read_trailer, write_cache,
)
from polab.marketdata import parse
from polab.marketdata.parse import iter_transactions
from polab.marketdata.schema import ParseReport, TransactionChunk
from polab.panel import PolarityPanel

from cache_bytes import (
    SEAL, STAMP, TRAILER, Rows, cache_bytes, chunk_of, header, man_times, sealed,
)


HEADER = "trade_date,stock_id,time,price,volume,buy_serial,sell_serial"


def block(stock="000001", date=dt.date(2015, 5, 4), n=5, seed=0):
    rng = np.random.default_rng(seed)
    return Rows(
        stock_id=stock,
        trade_date=date,
        bar=rng.integers(1, 238, n).astype("<u1"),
        buy_serial=rng.integers(1, 10_000, n).astype("<u4"),
        sell_serial=rng.integers(1, 10_000, n).astype("<u4"),
    )


def read_back(b: Rows) -> tuple:
    """What ``iter_blocks`` should yield for ``b``'s rows: its key, row
    count, bars and counts, as the reference encoder counts them."""
    cells = man_times(b)
    return (b.stock_id, b.trade_date, b.n_rows, list(cells), list(cells.values()))


def as_read(blk) -> tuple:
    """A block ``iter_blocks`` yielded, in ``read_back``'s terms."""
    return (blk.stock_id, blk.trade_date, blk.n_rows, blk.bar.tolist(), blk.counts.tolist())


#: rows of one (stock, day), each (bar, buy serial, sell serial), and the
#: cells of its block, each (bar, buy, sell, day-scope buy, day-scope sell),
#: counted by hand
HAND_COUNTED = {
    "fills-of-one-order-in-a-bar": (
        [(5, 1, 2), (5, 1, 2), (5, 1, 3)], [(5, 1, 2, 1, 2)]),
    "order-in-several-bars-later-bar-first": (
        [(9, 1, 7), (5, 1, 7), (7, 1, 8)], [(5, 1, 1, 1, 1), (7, 1, 1, 0, 1), (9, 1, 1, 0, 0)]),
    "one-serial-on-both-sides": (
        [(3, 4, 4), (4, 4, 4)], [(3, 1, 1, 1, 1), (4, 1, 1, 0, 0)]),
    "off-grid-fills-count-nowhere": (
        [(0, 1, 2), (8, 1, 3), (0, 5, 5)], [(8, 1, 1, 1, 1)]),
    "the-grid-ends": (
        [(237, 1, 1), (1, 2, 2), (237, 2, 3)], [(1, 1, 1, 1, 1), (237, 2, 2, 1, 2)]),
    "the-u32-ends": (
        [(6, 0, 2**32 - 1), (6, 2**32 - 1, 0), (7, 0, 0)], [(6, 2, 2, 2, 2), (7, 1, 1, 0, 0)]),
}


class TestRoundTrip:
    def test_blocks_survive_write_read(self, tmp_path):
        path = tmp_path / "c.plab"
        blocks = [block(stock=f"00000{i}", seed=i, n=3 + i) for i in range(4)]
        with CacheWriter(path) as w:
            for b in blocks:
                w.append(chunk_of(b))
        assert path.read_bytes() == cache_bytes(blocks)
        assert [as_read(b) for b in iter_blocks(path)] == [read_back(b) for b in blocks]

    @pytest.mark.parametrize("largest,dtype", [(1, np.uint8), (255, np.uint8), (256, np.uint16),
                                               (65_535, np.uint16), (65_536, np.uint32)])
    def test_counts_take_the_narrowest_width(self, tmp_path, largest, dtype):
        # ``largest`` distinct buy serials in bar 9, each twice; 3 sell
        # serials over bars 9 and 10. Every count of the block takes the
        # largest's width, the sell side's too
        rng = np.random.default_rng(largest)
        serials = rng.permutation(np.arange(largest, dtype=np.uint32) * 7919 + 2**31)
        n = 2 * largest + 1
        bars = np.full(n, 9, np.uint8)
        bars[-1] = 10
        b = Rows("000001", dt.date(2015, 5, 4), bars, np.append(np.repeat(serials, 2), 5),
                 np.uint32(2**32 - 3) + np.arange(n, dtype=np.uint32) % 3)
        with CacheWriter(tmp_path / "c.plab") as w:
            w.append(chunk_of(b))
        (got,) = iter_blocks(tmp_path / "c.plab")
        assert got.counts.dtype == dtype
        assert as_read(got) == read_back(b)
        assert got.bar.tolist() == [9, 10] and got.counts[0, 0] == largest
        raw = (tmp_path / "c.plab").read_bytes()
        assert raw[32:34] == bytes([2, np.dtype(dtype).itemsize])  # cells, width
        assert raw == cache_bytes([b])
        assert len(raw) == 34 + 2 * (1 + 4 * np.dtype(dtype).itemsize) + TRAILER

    def test_magic_bytes_lead_the_file(self, tmp_path):
        path = tmp_path / "c.plab"
        with CacheWriter(path) as w:
            w.append(chunk_of(block()))
        assert path.read_bytes()[:5] == MAGIC

    def test_from_stream_matches_direct_panel(self, small_scenario, tmp_path):
        files, _ = small_scenario
        path = tmp_path / "c.plab"
        n = write_cache(path, iter_transactions(files.transactions))
        direct = PolarityPanel.from_transactions(files.transactions)
        cached = PolarityPanel.from_cache(path)
        assert cached.equals(direct)
        assert n == sum(len(chunk) for chunk in iter_transactions(files.transactions))

    def test_small_flush_splits_keys_but_counts_agree(self, small_scenario, tmp_path, monkeypatch):
        files, _ = small_scenario
        monkeypatch.setattr(parse, "_BLOCK_BYTES", 256)  # chunks of a few rows
        flushed = []  # the keys of each flush, in the order it writes them
        flush = CacheWriter._flush

        def counted(writer):
            flushed.extend(writer._ids)
            return flush(writer)

        path, whole = tmp_path / "c.plab", tmp_path / "whole.plab"
        with mock.patch.object(CacheWriter, "_flush", counted):
            write_cache(path, iter_transactions(files.transactions), flush_rows=64)
        assert len(flushed) > len(set(flushed))  # keys really did split across flushes
        keys = [(b.stock_id, b.trade_date) for b in iter_blocks(path)]
        assert keys == list(dict.fromkeys(flushed))  # the writer merged them
        write_cache(whole, iter_transactions(files.transactions))
        assert path.read_bytes() == whole.read_bytes()
        direct = PolarityPanel.from_transactions(files.transactions)
        assert PolarityPanel.from_cache(path).equals(direct)

    def test_off_grid_rows_are_counted_in_rows_not_cells(self, tmp_path):
        import polab.synth as synth

        regime = synth.RegimeSpec("flow", buy_rate=0.5, sell_rate=0.5, bars=(10, 20))
        files, _ = synth.generate(
            regime, 3, [dt.date(2015, 5, 4)], 7, tmp_path, n_offgrid_rows=4
        )
        path = tmp_path / "c.plab"
        report = ParseReport()
        n = write_cache(path, iter_transactions(files.transactions, report=report))
        assert report.off_grid_rows == 4
        blocks = list(iter_blocks(path))
        assert n == report.parsed_rows == sum(b.n_rows for b in blocks)
        assert {bar for b in blocks for bar in b.bar.tolist()} <= set(range(10, 21))
        recount = synth.brute_force_recount(files.transactions)
        assert PolarityPanel.from_cache(path).active_cells() == recount.cells

    @pytest.mark.parametrize("rows,cells", HAND_COUNTED.values(), ids=HAND_COUNTED)
    def test_counts_of_hand_counted_rows(self, tmp_path, rows, cells):
        bar, buy, sell = zip(*rows)
        b = Rows("000001", dt.date(2015, 5, 4), np.array(bar, "<u1"), np.array(buy, "<u4"),
                 np.array(sell, "<u4"))
        assert man_times(b) == {bar: list(counts) for bar, *counts in cells}
        with CacheWriter(tmp_path / "c.plab") as w:
            w.append(chunk_of(b))
        (got,) = iter_blocks(tmp_path / "c.plab")
        assert got.n_rows == len(rows)
        assert [(bar, *counts) for bar, counts in zip(got.bar.tolist(), got.counts.tolist())] == cells

    def test_keys_counted_together_keep_their_orders_apart(self, tmp_path):
        # three keys in one batch share their serials; each counts them as
        # if it were alone, so no key's order is another key's earlier fill
        keys = [("000001", dt.date(2015, 5, 4)), ("000002", dt.date(2015, 5, 4)),
                ("000001", dt.date(2015, 5, 5))]
        blocks = [Rows(stock, date, np.array([6, 5, 6], "<u1"), np.array([1, 1, 2], "<u4"),
                       np.array([1, 1, 1], "<u4")) for stock, date in keys]
        with CacheWriter(tmp_path / "c.plab") as w:
            w.append(chunk_of(*blocks))
        got = list(iter_blocks(tmp_path / "c.plab"))
        assert [as_read(b)[:3] for b in got] == [(*key, 3) for key in keys]
        assert all(b.bar.tolist() == [5, 6] for b in got)
        assert all(b.counts.tolist() == [[1, 1, 1, 1], [2, 1, 1, 0]] for b in got)

    def test_off_grid_day_keeps_a_block_without_cells(self, tmp_path):
        rows = Rows("000002", dt.date(2015, 5, 5), np.zeros(2, np.uint8), [4, 5], [6, 6])
        with CacheWriter(tmp_path / "c.plab") as w:
            w.append(chunk_of(block(), rows))
        assert (tmp_path / "c.plab").read_bytes() == cache_bytes([block(), rows])
        _, got = iter_blocks(tmp_path / "c.plab")
        assert as_read(got) == ("000002", dt.date(2015, 5, 5), 2, [], [])


class TestCloseBatches:
    @pytest.mark.parametrize("count_rows", (1, 2, 3, 17, 1 << 13))
    def test_batch_size_does_not_change_the_bytes(self, small_scenario, tmp_path, monkeypatch,
                                                  count_rows):
        # keys are counted in batches of whole keys, about ``count_rows``
        # rows each; a key larger than that goes alone
        files, _ = small_scenario
        chunks = list(iter_transactions(files.transactions))
        want = merged([b for chunk in chunks for b in blocks_of(chunk)])
        batches = []
        count = cache_mod._man_times

        def counted(rows, sizes):
            batches.append(sizes.tolist())
            return count(rows, sizes)

        monkeypatch.setattr(cache_mod, "_COUNT_ROWS", count_rows)
        monkeypatch.setattr(cache_mod, "_man_times", counted)
        path = tmp_path / "c.plab"
        write_cache(path, iter(chunks))
        assert path.read_bytes() == cache_bytes(want)
        assert [n for sizes in batches for n in sizes] == [b.n_rows for b in want]
        starts = np.cumsum([0] + [b.n_rows for b in want])[:-1]
        assert len(batches) == len(set((starts // count_rows).tolist()))
        assert all(len(sizes) == 1 or sum(sizes[:-1]) < count_rows for sizes in batches)


U32 = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))
ROW = st.tuples(st.integers(0, 237), U32, U32)


@st.composite
def cache_blocks(draw):
    """Blocks as the writer takes them; keys may repeat, ids may be non-ASCII."""
    ids = st.one_of(st.sampled_from(["000001", "平安银行", "a\x00", ""]), st.text(max_size=4))
    out = []
    for _ in range(draw(st.integers(0, 6))):
        rows = draw(st.lists(ROW, max_size=12))
        cols = list(zip(*rows)) if rows else [()] * 3
        out.append(
            Rows(
                draw(ids),
                draw(st.sampled_from([dt.date(2015, 5, 4), dt.date(2015, 6, 15)]) | st.dates()),
                bar=np.array(cols[0], dtype="<u1"),
                buy_serial=np.array(cols[1], dtype="<u4"),
                sell_serial=np.array(cols[2], dtype="<u4"),
            )
        )
    return out


def merged(blocks) -> list:
    """One block per key: keys in order of their first row, each key's rows
    in append order. A key without rows has no block."""
    keys = {}
    for b in filter(lambda b: b.n_rows, blocks):
        keys.setdefault((b.stock_id, b.trade_date), []).append(b)
    cols = ("bar", "buy_serial", "sell_serial")
    return [
        Rows(*key, *(np.concatenate([getattr(b, c) for b in parts]) for c in cols))
        for key, parts in keys.items()
    ]


def blocks_of(chunk) -> list:
    """``chunk``'s rows as a block per key, keys in order of their first row."""
    keys = dict.fromkeys(zip(chunk.stock_idx.tolist(), chunk.date_idx.tolist()))
    out = []
    for s, d in keys:
        rows = (chunk.stock_idx == s) & (chunk.date_idx == d)
        out.append(Rows(chunk.stocks[s], chunk.dates[d], chunk.bar[rows],
                        chunk.buy_serial[rows], chunk.sell_serial[rows]))
    return out


def reference_cells(blocks, serial_scope) -> dict:
    """{(stock, date, bar): (buy, sell)} of ``blocks`` in one scope, as the
    reference encoder counts them."""
    side = 2 if serial_scope == "day" else 0
    return {
        (b.stock_id, b.trade_date, bar): tuple(counts[side : side + 2])
        for b in blocks for bar, counts in man_times(b).items() if any(counts[side : side + 2])
    }


def _built_dtype(panel: PolarityPanel) -> np.dtype:
    """The narrowest unsigned type that holds the panel's largest count:
    the type a build holds its counts in."""
    return np.min_scalar_type(max(int(panel.buy.max(initial=0)), int(panel.sell.max(initial=0))))


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(blocks=cache_blocks())
    def test_writer_matches_the_reference_encoder(self, blocks):
        # a block a chunk; a flush a chunk leaves every merge to the close,
        # the default flush holds every chunk and merges them in its buffer
        with tempfile.TemporaryDirectory() as tmp:
            want = merged(blocks)
            for flush_rows in (1, cache_mod._FLUSH_ROWS):
                path = Path(tmp) / f"c{flush_rows}.plab"
                with CacheWriter(path, flush_rows) as w:
                    for b in blocks:
                        w.append(chunk_of(b))
                assert path.read_bytes() == cache_bytes(want)
            assert [as_read(b) for b in iter_blocks(path)] == [read_back(b) for b in want]
            for scope in ("bar", "day"):
                panel = PolarityPanel.from_cache(path, serial_scope=scope)
                assert panel.active_cells() == reference_cells(want, scope)
                assert panel.stocks == sorted({b.stock_id for b in want})
                assert panel.dates == sorted({b.trade_date for b in want})
                assert panel.buy.dtype == panel.sell.dtype == _built_dtype(panel)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(
        st.tuples(
            st.sampled_from(("2015-05-04", "2015-05-05")), st.sampled_from(("000001", "000002", "Ω3")),
            st.sampled_from(("09:25:00.000", "09:31:00.000", "10:15:30.000", "14:56:59.999")),
            st.integers(1, 9), st.integers(1, 9),
        ),
        max_size=60,
    ))
    def test_cache_bytes_do_not_depend_on_the_flush(self, rows):
        # every flush size gives one block per key, so the same file
        with tempfile.TemporaryDirectory() as tmp:
            feed = Path(tmp) / "tx.csv"
            lines = [HEADER] + [f"{d},{stock},{t},10.0,100,{b},{s}" for d, stock, t, b, s in rows]
            feed.write_text("\n".join(lines) + "\n")
            files = set()
            for flush_rows in (1, 7, 8192, 1 << 20):
                path = Path(tmp) / f"c{flush_rows}.plab"
                report = ParseReport()
                with mock.patch.object(parse, "_BLOCK_BYTES", 1):  # a chunk a row
                    chunks = list(iter_transactions(feed, report=report))
                write_cache(path, iter(chunks), flush_rows, feed, report)
                files.add(path.read_bytes())
            assert len(files) == 1


class TestValidation:
    def test_serial_beyond_u32_in_feed_is_a_data_error(self, tmp_path):
        tx = tmp_path / "tx.csv"
        tx.write_text(
            "trade_date,stock_id,time,price,volume,buy_serial,sell_serial\n"
            f"2015-05-04,000001,09:31:00.000,10.0,100,{2**32},2\n"
        )
        with pytest.raises(DataError, match="overflows"):
            write_cache(tmp_path / "c.plab", iter_transactions(tx))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tx.csv"]

    @pytest.mark.parametrize("column", ("buy_serial", "sell_serial"))
    def test_each_u32_column_overflow_leaves_no_cache(self, tmp_path, column):
        fields = {"volume": 100, "buy_serial": 1, "sell_serial": 2}
        good = "2015-05-04,000001,09:31:00.000,10.0,{volume},{buy_serial},{sell_serial}"
        lines = [good.format(**fields)] * 50
        lines[30] = good.format(**{**fields, column: 2**32})
        tx = tmp_path / "tx.csv"
        tx.write_text("\n".join([HEADER] + lines) + "\n")
        cache = tmp_path / "c.plab"
        with CacheWriter(cache) as w:  # an older cache at the path goes too
            w.append(chunk_of(block()))
        with pytest.raises(DataError, match=f"^{column} overflows the cache's u32 column$"):
            write_cache(cache, iter_transactions(tx), flush_rows=8)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tx.csv"]

    def test_volume_beyond_u32_is_cached(self, tmp_path):
        # volume is parsed and validated but not cached, so it has no u32 limit
        import polab.synth as synth

        lines = [
            f"2015-05-04,00000{1 + i % 3},{9 + i % 2:02d}:{31 + i % 7:02d}:00.000,10.0,"
            f"{2**40 if i % 4 == 0 else 100},{1 + i % 11},{1 + i % 5}"
            for i in range(60)
        ]
        tx = tmp_path / "tx.csv"
        tx.write_text("\n".join([HEADER] + lines) + "\n")
        report = ParseReport()
        n = write_cache(tmp_path / "c.plab", iter_transactions(tx, report=report))
        assert n == 60 and report.malformed_rows == 0
        panel = PolarityPanel.from_cache(tmp_path / "c.plab")
        assert panel.active_cells() == synth.brute_force_recount(tx).cells

    def test_write_cache_appends_once_per_chunk(self, small_scenario, tmp_path, monkeypatch):
        files, _ = small_scenario
        monkeypatch.setattr(parse, "_BLOCK_BYTES", 2048)
        path = tmp_path / "c.plab"
        appended, flushes = [], []
        append, flush = CacheWriter.append, CacheWriter._flush

        def counted(writer, chunk):
            appended.append(copy.deepcopy(chunk))
            return append(writer, chunk)

        def flushed(writer):
            # a flush writes its rows at once and indexes each key it holds once
            rows, keys = writer._buffered, len(writer._ids)
            at, indexed = writer._fh.tell(), len(writer._keys)
            flush(writer)
            assert writer._fh.tell() == at + rows * cache_mod._ROW.itemsize
            assert len(writer._keys) == indexed + keys
            flushes.append((rows, keys))

        with mock.patch.object(CacheWriter, "append", counted), \
                mock.patch.object(CacheWriter, "_flush", flushed):
            write_cache(path, iter_transactions(files.transactions), flush_rows=512)
        assert len(appended) == len(list(iter_transactions(files.transactions)))
        assert sum(rows for rows, _ in flushes) == sum(map(len, appended))
        blocks = list(iter_blocks(path))
        assert sum(keys for _, keys in flushes) > len(blocks)  # keys span several flushes
        assert len(blocks) == len({(b.stock_id, b.trade_date) for b in blocks})
        want = merged([b for chunk in appended for b in blocks_of(chunk)])
        assert [as_read(b) for b in blocks] == [read_back(b) for b in want]
        assert path.read_bytes() == cache_bytes(want)

    def test_repeated_key_is_refused(self, tmp_path):
        # only a cache from a writer that split keys across blocks has one
        path = tmp_path / "c.plab"
        path.write_bytes(cache_bytes([block(n=3), block("000002"), block(n=4, seed=1)]))
        with pytest.raises(DataError, match=r"second block for \('000001', 2015-05-04\).*"
                                            r"re-run `polab ingest`"):
            list(iter_blocks(path))
        path.write_bytes(cache_bytes([block(n=3), block("000002"), block(date=dt.date(2015, 5, 5))]))
        assert len(list(iter_blocks(path))) == 3

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.plab"
        path.write_bytes(sealed(b"NOTPL" + b"\x00" * 32))
        with pytest.raises(DataError, match="not a polab cache: bad magic"):
            list(iter_blocks(path))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "c.plab"
        with CacheWriter(path) as w:
            w.append(chunk_of(block(n=100)))
        clipped = tmp_path / "clipped.plab"
        clipped.write_bytes(sealed(path.read_bytes()[:-TRAILER][:-50]))
        with pytest.raises(DataError, match="truncated block in"):
            list(iter_blocks(clipped))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "c.plab"
        with CacheWriter(path) as w:
            w.append(chunk_of(block()))
        raw = bytearray(path.read_bytes())
        raw[5] = 99  # version lives right after the magic
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="version"):
            list(iter_blocks(path))

    @pytest.mark.parametrize("version", (0, 4, 6, 0xFFFF))
    def test_other_version_is_refused_by_every_reader(self, tmp_path, version):
        # the version is checked before the trailer: this file has none
        path = tmp_path / "c.plab"
        path.write_bytes(header(0, version=version) + bytes(3))
        message = rf"^unsupported cache version {version} in .*re-run `polab ingest`"
        for read in (lambda: list(iter_blocks(path)), lambda: read_trailer(path),
                     lambda: cache_mod.check_feed(path, tmp_path / "feed.csv")):
            with pytest.raises(DataError, match=message):
                read()

    def test_serial_overflow_rejected(self, tmp_path):
        b = block()
        b.buy_serial = b.buy_serial.astype("<u8")
        b.buy_serial[0] = 2**33
        with CacheWriter(tmp_path / "c.plab") as w:
            with pytest.raises(DataError, match="overflows"):
                w.append(chunk_of(b))


def _edited(raw: bytes, offset: int, value: bytes) -> bytes:
    return raw[:offset] + value + raw[offset + len(value):]


# one block of 5 rows in two bars: header 0-15, stock-id length 16, stock id
# 18-23, date 24, row count 28, cell count 32, count width 33, bars 34-35,
# counts 36-43
STRUCTURE_DAMAGE = [
    (lambda raw: raw[:17], "truncated block header"),
    (lambda raw: _edited(raw, 8, (2).to_bytes(8, "little")), "truncated block header"),
    (lambda raw: _edited(raw, 18, b"\xff"), "not UTF-8"),
    (lambda raw: _edited(raw, 24, (20151399).to_bytes(4, "little")), "bad date"),
    (lambda raw: _edited(raw, 32, b"\xff"), "truncated block"),
    (lambda raw: _edited(raw, 34, b"\x00"), "bars out of range or order"),
    (lambda raw: _edited(raw, 35, b"\xf0"), "bars out of range or order"),
    (lambda raw: _edited(raw, 34, b"\x09"), "bars out of range or order"),
    (lambda raw: _edited(raw, 35, b"\x07"), "bars out of range or order"),
    (lambda raw: raw + b"xx", "bytes after its last block"),
    (lambda raw: _edited(raw, 33, b"\x03"), r"bad count width 3 .* at byte 34"),
    (lambda raw: _edited(raw, 33, b"\x00"), "bad count width 0"),
    (lambda raw: _edited(raw, 33, b"\x02"), "truncated block"),
]


# damage that only the trailer catches, then damage that the structure does
TRAILER_DAMAGE = [
    (lambda raw: _edited(raw, 40, b"\x09"), "does not match its checksum"),
    (lambda raw: _edited(raw, 28, (2**32 - 1).to_bytes(4, "little")), "does not match its checksum"),
    (lambda raw: _edited(raw, len(raw) - SEAL, bytes([raw[-SEAL] ^ 1])), "does not match its checksum"),
    (lambda raw: _edited(raw, len(raw) - TRAILER + 3, b"\x01"), "does not match its checksum"),
    (lambda raw: raw[:-1], r"bad trailer magic b'.+PLAB'"),
    (lambda raw: _edited(raw, len(raw) - 1, b"2"), "bad trailer magic b'PLAB2'"),
    (lambda raw: raw[:16 + TRAILER - 1], "truncated trailer"),
    (lambda raw: raw + b"xx", "bad trailer magic"),
    (lambda raw: _edited(raw, 34, b"\xf0"), "bars out of range or order"),
]


def _exited_pid() -> int:
    """The pid of a process that has run and exited."""
    return int(subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                              capture_output=True, text=True, check=True).stdout)


class TestDamage:
    @pytest.fixture
    def raw(self, tmp_path):
        b = block(n=5)
        b.bar = np.array([7, 9, 7, 9, 9], dtype="<u1")
        with CacheWriter(tmp_path / "c.plab") as w:
            w.append(chunk_of(b))
        return (tmp_path / "c.plab").read_bytes()

    def test_fixture_has_the_layout_the_damage_assumes(self, raw):
        assert len(raw) == 44 + TRAILER and raw[32:36] == bytes([2, 1, 7, 9])

    @pytest.mark.parametrize("edit,message", STRUCTURE_DAMAGE)
    def test_structure_damage_is_a_data_error(self, raw, tmp_path, edit, message):
        path = tmp_path / "damaged.plab"  # its trailer matches: the structure is checked
        path.write_bytes(sealed(edit(raw[:-TRAILER])))
        with pytest.raises(DataError, match=message):
            list(iter_blocks(path))

    @pytest.mark.parametrize("edit,message", TRAILER_DAMAGE)
    def test_checksum_catches_damage_to_values(self, raw, tmp_path, edit, message):
        path = tmp_path / "c.plab"
        path.write_bytes(edit(raw))
        with pytest.raises(DataError, match=message):
            list(iter_blocks(path))

    @pytest.mark.parametrize("cut", (TRAILER, 1))
    def test_cache_without_its_trailer_is_refused(self, tmp_path, cut):
        # every reader refuses a cache cut short, the trailer wholly or in part
        path = tmp_path / "c.plab"
        with CacheWriter(path) as w:
            w.append(chunk_of(block(n=100)))
        path.write_bytes(path.read_bytes()[:-cut])
        message = rf"bad trailer magic .* in {re.escape(str(path))}: .*re-run `polab ingest`"
        for read in (lambda: list(iter_blocks(path)), lambda: read_trailer(path),
                     lambda: cache_mod.check_feed(path, tmp_path / "feed.csv")):
            with pytest.raises(DataError, match=message):
                read()

    def test_writer_leaves_only_the_cache(self, raw, tmp_path):
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.plab"]
        # no feed was named: the stamp is every byte 0xff and none is read back
        assert raw[-TRAILER:-TRAILER + STAMP] == b"\xff" * STAMP
        assert read_trailer(tmp_path / "c.plab") == (zlib.crc32(raw[:-SEAL]), len(raw), None)

    def test_writer_records_the_feed_in_the_trailer(self, tmp_path):
        feed = tmp_path / "tx.csv"
        feed.write_text(HEADER + "\n2015-05-04,000001,09:31:00.000,10.0,100,1,2\n")
        path = tmp_path / "c.plab"
        report = ParseReport()
        write_cache(path, iter_transactions(feed, report=report), feed=feed, report=report)
        st = feed.stat()
        assert read_trailer(path)[2] == FeedStamp(st.st_size, st.st_mtime_ns, 1)
        cache_mod.check_feed(path, feed)
        os.utime(feed, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
        with pytest.raises(DataError, match="size or mtime has changed"):
            cache_mod.check_feed(path, feed)
        # the stamp is under the CRC: a stamp edited to match fails it
        raw = bytearray(path.read_bytes())
        raw[-TRAILER + 8 : -TRAILER + 16] = (st.st_mtime_ns + 1).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        cache_mod.check_feed(path, feed)
        with pytest.raises(DataError, match="does not match its checksum"):
            list(iter_blocks(path))

    def test_failed_write_removes_older_cache(self, raw, tmp_path):
        with pytest.raises(RuntimeError):
            with CacheWriter(tmp_path / "c.plab") as w:
                w.append(chunk_of(block()))
                raise RuntimeError("feed broke")
        assert list(tmp_path.iterdir()) == []

    def test_writer_removes_temporaries_only_of_writers_gone(self, tmp_path):
        # a pid that has exited, this process's parent (alive), names that
        # are not a writer's temporary of this cache, and a pid beyond pid_t
        gone = _exited_pid()
        names = [f"c.plab.{gone}.tmp", f"c.plab.{os.getppid()}.tmp", "c.plab.x.tmp",
                 f"d.plab.{gone}.tmp", f"c.plab.{gone}.tmp.keep", f"c.plab.{2**31}.tmp"]
        for name in names:
            (tmp_path / name).write_bytes(b"left")
        with CacheWriter(tmp_path / "c.plab") as w:
            w.append(chunk_of(block()))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["c.plab"] + names[1:])

    @pytest.mark.parametrize("name,other", (("c[1].plab", "c1.plab"), ("c*.plab", "cx.plab"),
                                            ("c?.plab", "cx.plab")))
    def test_temporaries_are_matched_by_the_cache_name_itself(self, tmp_path, name, other):
        # ``other`` matches ``name`` read as a glob pattern: its writer's
        # temporary is another cache's, and stays
        gone = _exited_pid()
        for cache in (name, other):
            (tmp_path / f"{cache}.{gone}.tmp").write_bytes(b"left")
        with CacheWriter(tmp_path / name) as w:
            w.append(chunk_of(block()))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, f"{other}.{gone}.tmp"])

    def test_failed_close_removes_temporary_and_older_cache(self, raw, tmp_path, monkeypatch):
        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError, match="No space"):
            with CacheWriter(tmp_path / "c.plab") as w:
                w.append(chunk_of(block()))
        assert list(tmp_path.iterdir()) == []

    def test_failed_merge_removes_both_temporaries_and_older_cache(self, raw, tmp_path, monkeypatch):
        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError, match="No space"):
            with CacheWriter(tmp_path / "c.plab", flush_rows=1) as w:  # two fragments of a key
                w.append(chunk_of(block()))
                w.append(chunk_of(block(n=2)))
        assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def dense_flow(tmp_path_factory):
    """The dense flow on 80 stocks over 2 days, about 490k rows, and its
    first quarter as a feed of its own. Each day's keys span three default
    flushes."""
    import polab.synth as synth

    root = tmp_path_factory.mktemp("dense")
    regime = synth.RegimeSpec("dense", buy_rate=11.0, sell_rate=11.0)
    files, _ = synth.generate(regime, 80, [dt.date(2015, 5, 4), dt.date(2015, 5, 5)], 77, root)
    lines = files.transactions.read_bytes().splitlines(keepends=True)
    quarter = root / "quarter.csv"
    quarter.write_bytes(b"".join(lines[: 1 + (len(lines) - 1) // 4]))
    return quarter, files.transactions


class TestBoundedMemory:
    def test_ingest_peak_does_not_grow_with_the_feed(self, dense_flow, tmp_path):
        flush_rows = inspect.signature(write_cache).parameters["flush_rows"].default
        peaks, rows = [], []
        for feed in dense_flow:
            tracemalloc.start()
            try:
                rows.append(write_cache(tmp_path / "c.plab", iter_transactions(feed)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks
        assert rows[1] > 5 * flush_rows and rows[0] > flush_rows  # the flushes the peaks span

    def test_flush_orders_more_keys_than_16_bits_number(self, tmp_path):
        # each of 2**16 + 3 stocks trades twice, in two shuffled passes; a
        # stock's bars name it (mod 118) and its pass
        n = (1 << 16) + 3
        perm = np.random.default_rng(5).permutation(n).astype(np.int32)
        stock_idx = np.concatenate((perm, perm))
        serial = np.arange(1, 2 * n + 1)
        bar = np.concatenate((1 + perm % 118, 119 + perm % 118)).astype(np.int16)
        chunk = TransactionChunk([f"{i:06d}" for i in range(n)], [dt.date(2015, 5, 4)], stock_idx,
                                 np.zeros(2 * n, np.int32), serial, serial[::-1], bar)
        write_cache(tmp_path / "c.plab", [chunk])
        blocks = list(iter_blocks(tmp_path / "c.plab"))
        assert [int(b.stock_id) for b in blocks] == perm.tolist()
        for b in blocks:
            k = int(b.stock_id)
            assert b.bar.tolist() == [1 + k % 118, 119 + k % 118]
            assert b.n_rows == 2 and b.counts.tolist() == [[1, 1, 1, 1]] * 2

    def test_default_flush_merges_to_the_single_flush_bytes(self, dense_flow, tmp_path):
        from polab.cli import main

        _, feed = dense_flow
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"transactions": str(feed), "out_dir": str(tmp_path / "out")}))
        cache = tmp_path / "out" / "cache.plab"
        outputs = (cache, tmp_path / "out" / "ingest_report.csv")
        flushed = []
        flush = CacheWriter._flush

        def counted(writer):
            flushed.append(writer._buffered)
            return flush(writer)

        with mock.patch.object(CacheWriter, "_flush", counted):
            assert main(["ingest", "--config", str(cfg)]) == 0
        assert len([n for n in flushed if n]) >= 6
        got = [p.read_bytes() for p in outputs]
        single = functools.partial(write_cache, flush_rows=1 << 30)
        with mock.patch.object(cache_mod, "write_cache", single):
            assert main(["ingest", "--config", str(cfg)]) == 0
        assert [p.read_bytes() for p in outputs] == got
