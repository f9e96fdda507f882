import datetime as dt
import os
import re
import tempfile
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
    MAGIC, CacheBlock, CacheWriter, checksum_path, iter_blocks, panel_memo_path,
    verified_crc32, write_cache,
)
from polab.marketdata import parse
from polab.marketdata.parse import iter_transactions
from polab.marketdata.schema import ParseReport
from polab.panel import PolarityPanel


HEADER = "trade_date,stock_id,time,price,volume,buy_serial,sell_serial"


def block(stock="000001", date=dt.date(2015, 5, 4), n=5, seed=0):
    rng = np.random.default_rng(seed)
    return CacheBlock(
        stock_id=stock,
        trade_date=date,
        bar=rng.integers(1, 238, n).astype("<u1"),
        buy_serial=rng.integers(1, 10_000, n).astype("<u4"),
        sell_serial=rng.integers(1, 10_000, n).astype("<u4"),
    )


class TestRoundTrip:
    def test_blocks_survive_write_read(self, tmp_path):
        path = tmp_path / "c.plab"
        blocks = [block(stock=f"00000{i}", seed=i, n=3 + i) for i in range(4)]
        with CacheWriter(path) as w:
            for b in blocks:
                w.append(b)
        loaded = list(iter_blocks(path))
        assert len(loaded) == 4
        for orig, got in zip(blocks, loaded):
            assert got.stock_id == orig.stock_id
            assert got.trade_date == orig.trade_date
            for col in ("bar", "buy_serial", "sell_serial"):
                np.testing.assert_array_equal(getattr(got, col), getattr(orig, col))

    def test_magic_bytes_lead_the_file(self, tmp_path):
        path = tmp_path / "c.plab"
        with CacheWriter(path) as w:
            w.append(block())
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
        appended = []
        append = CacheWriter.append

        def counted(writer, blk):
            appended.append((blk.stock_id, blk.trade_date))
            return append(writer, blk)

        path, whole = tmp_path / "c.plab", tmp_path / "whole.plab"
        with mock.patch.object(CacheWriter, "append", counted):
            write_cache(path, iter_transactions(files.transactions), flush_rows=64)
        assert len(appended) > len(set(appended))  # keys really did split across flushes
        keys = [(b.stock_id, b.trade_date) for b in iter_blocks(path)]
        assert keys == list(dict.fromkeys(appended))  # the writer merged them
        write_cache(whole, iter_transactions(files.transactions))
        assert path.read_bytes() == whole.read_bytes()
        direct = PolarityPanel.from_transactions(files.transactions)
        assert PolarityPanel.from_cache(path).equals(direct)

    def test_off_grid_rows_are_retained(self, tmp_path):
        import polab.synth as synth

        regime = synth.RegimeSpec("flow", buy_rate=0.5, sell_rate=0.5, bars=(10, 20))
        files, _ = synth.generate(
            regime, 3, [dt.date(2015, 5, 4)], 7, tmp_path, n_offgrid_rows=4
        )
        path = tmp_path / "c.plab"
        n = write_cache(path, iter_transactions(files.transactions))
        off = sum(int((b.bar == 0).sum()) for b in iter_blocks(path))
        assert off == 4
        assert n == sum(len(chunk) for chunk in iter_transactions(files.transactions))


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
            CacheBlock(
                draw(ids),
                draw(st.sampled_from([dt.date(2015, 5, 4), dt.date(2015, 6, 15)]) | st.dates()),
                bar=np.array(cols[0], dtype="<u1"),
                buy_serial=np.array(cols[1], dtype="<u4"),
                sell_serial=np.array(cols[2], dtype="<u4"),
            )
        )
    return out


def merged(blocks) -> list:
    """One block per key: keys in order of first appearance, each key's rows
    in append order."""
    keys = {}
    for b in blocks:
        keys.setdefault((b.stock_id, b.trade_date), []).append(b)
    cols = ("bar", "buy_serial", "sell_serial")
    return [
        CacheBlock(*key, *(np.concatenate([getattr(b, c) for b in parts]) for c in cols))
        for key, parts in keys.items()
    ]


def recorded(path, raw: bytes) -> None:
    """Write ``raw`` at ``path`` with a checksum file that matches it, so a
    reader gets past the record to the structure."""
    path.write_bytes(raw)
    checksum_path(path).write_text(f"{zlib.crc32(raw):08x} {len(raw)}\n")


def raw_cache(path, blocks) -> None:
    """Write ``blocks`` as they are, repeats included, with a checksum file."""
    raw = cache_mod._HEADER.pack(MAGIC, cache_mod.VERSION, 0, len(blocks))
    for b in blocks:
        cols = (b.bar, b.buy_serial, b.sell_serial)
        raw += cache_mod._block_bytes(b.stock_id, cache_mod.date_to_int(b.trade_date), cols)
    recorded(path, raw)


def _built_dtype(panel: PolarityPanel) -> np.dtype:
    """The narrowest unsigned type that holds the panel's largest count:
    the type a build holds its counts in."""
    return np.min_scalar_type(max(int(panel.buy.max(initial=0)), int(panel.sell.max(initial=0))))


def _same_panel(a: PolarityPanel, b: PolarityPanel) -> bool:
    return (
        a.stocks == b.stocks
        and a.dates == b.dates
        and a.buy.dtype == a.sell.dtype == b.buy.dtype == b.sell.dtype == _built_dtype(b)
        and np.array_equal(a.buy, b.buy)
        and np.array_equal(a.sell, b.sell)
    )


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(blocks=cache_blocks())
    def test_writer_reader_and_panel_memo_round_trip(self, blocks):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.plab"
            with CacheWriter(path) as w:
                for b in blocks:
                    w.append(b)
            got, want = list(iter_blocks(path)), merged(blocks)
            assert [(b.stock_id, b.trade_date) for b in got] == [
                (b.stock_id, b.trade_date) for b in want
            ]
            for orig, back in zip(want, got):
                for col in ("bar", "buy_serial", "sell_serial"):
                    assert getattr(back, col).tobytes() == getattr(orig, col).tobytes()

            for scope in ("bar", "day"):
                built = PolarityPanel.from_cache(path, serial_scope=scope)
                assert _same_panel(PolarityPanel.from_cache_memo(path, serial_scope=scope), built)
                assert panel_memo_path(path, scope).exists()
                with mock.patch.object(cache_mod, "iter_blocks", side_effect=AssertionError):
                    loaded = PolarityPanel.from_cache_memo(path, serial_scope=scope)
                assert _same_panel(loaded, built)

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
                files.add((path.read_bytes(), checksum_path(path).read_bytes()))
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
            w.append(block())
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

    def test_write_cache_appends_once_per_block(self, small_scenario, tmp_path, monkeypatch):
        files, _ = small_scenario
        monkeypatch.setattr(parse, "_BLOCK_BYTES", 2048)
        path = tmp_path / "c.plab"
        appended = []
        append = CacheWriter.append

        def counted(writer, blk):
            appended.append(CacheBlock(blk.stock_id, blk.trade_date, blk.bar.copy(),
                                       blk.buy_serial.copy(), blk.sell_serial.copy()))
            return append(writer, blk)

        with mock.patch.object(CacheWriter, "append", counted):
            write_cache(path, iter_transactions(files.transactions), flush_rows=512)
        blocks = list(iter_blocks(path))
        assert len(appended) > len(blocks)  # keys span several flushes
        assert len(blocks) == len({(b.stock_id, b.trade_date) for b in blocks})
        for want, got in zip(merged(appended), blocks, strict=True):
            assert (got.stock_id, got.trade_date) == (want.stock_id, want.trade_date)
            for col in ("bar", "buy_serial", "sell_serial"):
                assert getattr(got, col).tobytes() == getattr(want, col).tobytes()

    def test_repeated_key_is_refused(self, tmp_path):
        # only a cache from a writer that split keys across blocks has one
        path = tmp_path / "c.plab"
        raw_cache(path, [block(n=3), block("000002"), block(n=4, seed=1)])
        with pytest.raises(DataError, match=r"second block for \('000001', 2015-05-04\).*"
                                            r"re-run `polab ingest`"):
            list(iter_blocks(path))
        raw_cache(path, [block(n=3), block("000002"), block(date=dt.date(2015, 5, 5))])
        assert len(list(iter_blocks(path))) == 3

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.plab"
        recorded(path, b"NOTPL" + b"\x00" * 32)
        with pytest.raises(DataError, match="bad magic"):
            list(iter_blocks(path))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "c.plab"
        with CacheWriter(path) as w:
            w.append(block(n=100))
        clipped = tmp_path / "clipped.plab"
        recorded(clipped, path.read_bytes()[:-50])
        with pytest.raises(DataError, match="truncated"):
            list(iter_blocks(clipped))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "c.plab"
        with CacheWriter(path) as w:
            w.append(block())
        raw = bytearray(path.read_bytes())
        raw[5] = 99  # version lives right after the magic
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="version"):
            list(iter_blocks(path))

    def test_serial_overflow_rejected(self, tmp_path):
        b = block()
        b.buy_serial = b.buy_serial.astype("<u8")
        b.buy_serial[0] = 2**33
        with CacheWriter(tmp_path / "c.plab") as w:
            with pytest.raises(DataError, match="overflows"):
                w.append(b)


def _edited(raw: bytes, offset: int, value: bytes) -> bytes:
    return raw[:offset] + value + raw[offset + len(value):]


# one block of 5 rows: header 0-15, stock-id length 16, stock id 18-23, date 24,
# row count 28, bar 32-36, buy serials 37-56, sell serials 57-76
STRUCTURE_DAMAGE = [
    (lambda raw: raw[:17], "truncated block header"),
    (lambda raw: _edited(raw, 8, (2).to_bytes(8, "little")), "truncated block header"),
    (lambda raw: _edited(raw, 18, b"\xff"), "not UTF-8"),
    (lambda raw: _edited(raw, 24, (20151399).to_bytes(4, "little")), "bad date"),
    (lambda raw: _edited(raw, 28, (2**32 - 1).to_bytes(4, "little")), "truncated block"),
    (lambda raw: _edited(raw, 32, b"\xf0"), "bar index out of range"),
    (lambda raw: raw + b"xx", "bytes after its last block"),
]


class TestDamage:
    @pytest.fixture
    def raw(self, tmp_path):
        b = block(n=5)
        b.bar = np.full(5, 7, dtype="<u1")
        with CacheWriter(tmp_path / "c.plab") as w:
            w.append(b)
        return (tmp_path / "c.plab").read_bytes()

    @pytest.mark.parametrize("edit,message", STRUCTURE_DAMAGE)
    def test_structure_damage_is_a_data_error(self, raw, tmp_path, edit, message):
        path = tmp_path / "damaged.plab"  # its record matches: the structure is checked
        recorded(path, edit(raw))
        with pytest.raises(DataError, match=message):
            list(iter_blocks(path))

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda raw: _edited(raw, 60, b"\x01"), "does not match its checksum"),
            (lambda raw: raw[:-1], "its checksum file says"),
            (lambda raw: _edited(raw, 32, b"\xf0"), "bar index out of range"),
        ],
    )
    def test_checksum_catches_damage_to_values(self, raw, tmp_path, edit, message):
        path = tmp_path / "c.plab"
        path.write_bytes(edit(raw))
        with pytest.raises(DataError, match=message):
            list(iter_blocks(path))

    def test_cache_without_checksum_file_is_refused(self, raw, tmp_path):
        # as a writer killed between moving the cache into place and
        # recording its checksum leaves it: every reader refuses it
        path = tmp_path / "c.plab"
        checksum_path(path).unlink()
        message = rf"cache {re.escape(str(path))} has no checksum record .*re-run `polab ingest`"
        for read in (lambda: list(iter_blocks(path)), lambda: verified_crc32(path),
                     lambda: cache_mod.check_feed(path, tmp_path / "feed.csv")):
            with pytest.raises(DataError, match=message):
                read()

    def test_writer_leaves_only_cache_and_checksum(self, raw, tmp_path):
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.plab", "c.plab.crc32"]
        assert checksum_path(tmp_path / "c.plab").read_text().split()[1] == str(len(raw))

    def test_failed_write_removes_older_cache(self, raw, tmp_path):
        with pytest.raises(RuntimeError):
            with CacheWriter(tmp_path / "c.plab") as w:
                w.append(block())
                raise RuntimeError("feed broke")
        assert list(tmp_path.iterdir()) == []

    def test_verified_crc32_raises_what_the_reader_raises(self, raw, tmp_path):
        path = tmp_path / "c.plab"
        assert verified_crc32(path) == (int(checksum_path(path).read_text().split()[0], 16), len(raw))
        for edit, message in (
            (lambda raw: _edited(raw, 60, b"\x01"), "does not match its checksum"),
            (lambda raw: raw[:-1], "its checksum file says"),
        ):
            path.write_bytes(edit(raw))
            with pytest.raises(DataError, match=message):
                verified_crc32(path)
            with pytest.raises(DataError, match=message):
                list(iter_blocks(path))

    def test_writer_removes_panel_memos(self, raw, tmp_path):
        path = tmp_path / "c.plab"
        memos = [panel_memo_path(path, scope) for scope in ("bar", "day")]
        other = tmp_path / "d.plab.panel-bar.npz"
        for memo in memos + [other]:
            memo.write_bytes(b"stale")
        with CacheWriter(path) as w:
            w.append(block())
        assert not any(m.exists() for m in memos) and other.exists()
        memos[0].write_bytes(b"stale")
        with pytest.raises(RuntimeError):
            with CacheWriter(path) as w:
                raise RuntimeError("feed broke")
        assert sorted(p.name for p in tmp_path.iterdir()) == [other.name]

    def test_failed_close_removes_temporary_and_older_cache(self, raw, tmp_path, monkeypatch):
        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError, match="No space"):
            with CacheWriter(tmp_path / "c.plab") as w:
                w.append(block())
        assert list(tmp_path.iterdir()) == []

    def test_failed_merge_removes_both_temporaries_and_older_cache(self, raw, tmp_path, monkeypatch):
        def full_disk(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError, match="No space"):
            with CacheWriter(tmp_path / "c.plab") as w:
                w.append(block())
                w.append(block(n=2))
        assert list(tmp_path.iterdir()) == []
