#!/usr/bin/env python3
"""Validates TBF durable state: journal directories and replay checkpoints.

Stdlib only — CI runs this against the journals and checkpoints the
seeded chaos and kill-anywhere drills leave behind, as an independent
(non-C++) check that what the writers fsync'd to disk is frame-clean,
schema-valid and consistent. It is the one validator for both artefacts
because both use the one byte codec (src/common/byte_codec.h).

Journal format (docs/ROBUSTNESS.md, src/serve/wal.cc):
    wal-<seq:08>.seg, each a sequence of frames
        <len:u32 LE> <crc32:u32 LE> <payload: len bytes>
    payload = <kind:u8> <lsn:u64 LE> <kind-specific fields, LE>
    kinds: 0 segment_header, 1 epoch_begin, 2 worker_arrival,
           3 task_arrival, 4 worker_departure, 5 quarantine,
           6 stream_fault, 7 republish

Checkpoint format (src/serve/checkpoint.cc):
    TBFCKPT2 <crc32 hex8> <payload bytes>\n
    <payload: version 4, identity, cursor, report, count-prefixed
     sections, engine state, metrics — the same LE codec as the journal>

Checks on a journal directory, mirroring the C++ scanner (ScanWalDir) in
strict mode:
  * every frame's CRC matches and no segment ends in a torn frame
    (run this after recovery has repaired the tail, not before);
  * every payload decodes field-for-field with nothing left over;
  * each segment opens with its own header (matching seq, same identity
    across segments) and headers never appear mid-segment;
  * segment sequence numbers of adjacent present files are contiguous
    (older segments may be compacted away) and LSNs are contiguous
    across the whole scan;
  * every ckpt-<ordinal:08>.ckpt in the directory validates as a
    checkpoint, carries the journal's run identity, and covers no LSN past
    the journal's end; the newest one starts at or after the journal's
    first retained LSN (what recovery replays from).

Checks on a checkpoint file: header, length and CRC; the payload decodes
field-for-field (flags 0/1, status codes in range, vector counts that fit
the remaining bytes) with nothing left over. Text checkpoints of older
builds (magic TBFCKPT1) are refused.

Exit status: 0 when every path validates, 1 otherwise.

Usage:
    tools/check_wal.py PATH [PATH...]    # journal directories, .ckpt files
    tools/check_wal.py --expect-fail PATH    # corrupted-fixture mode
"""

import argparse
import binascii
import os
import re
import struct
import sys

KIND_NAMES = {
    0: "segment_header",
    1: "epoch_begin",
    2: "worker_arrival",
    3: "task_arrival",
    4: "worker_departure",
    5: "quarantine",
    6: "stream_fault",
    7: "republish",
}

FLAG_PACKED = 1 << 0
FLAG_HAS_EPSILON = 1 << 1
FLAG_FORCED = 1 << 2
FLAG_HAS_WORKER = 1 << 3
FLAG_MISSED = 1 << 4

_SEG_RE = re.compile(r"^wal-(\d{8})\.seg$")
_CKPT_RE = re.compile(r"^ckpt-(\d{8})\.ckpt$")

CKPT_MAGIC = "TBFCKPT2"
CKPT_VERSION = 4
MAX_STATUS_CODE = 10  # StatusCode::kAborted
HIST_BUCKETS = 64  # obs::Histogram::kBuckets


class ShortRead(ValueError):
    pass


class Reader:
    """Bounds-checked little-endian reader over one payload."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def _take(self, n, what):
        if self.pos + n > len(self.data):
            raise ShortRead("short read (%s at byte %d)" % (what, self.pos))
        piece = self.data[self.pos : self.pos + n]
        self.pos += n
        return piece

    def u8(self):
        return self._take(1, "u8")[0]

    def u32(self):
        return struct.unpack("<I", self._take(4, "u32"))[0]

    def u64(self):
        return struct.unpack("<Q", self._take(8, "u64"))[0]

    def i64(self):
        return struct.unpack("<q", self._take(8, "i64"))[0]

    def f64(self):
        return struct.unpack("<d", self._take(8, "f64"))[0]

    def string(self):
        return self._take(self.u32(), "string body")

    def path(self):
        return self._take(2 * self.u32(), "leaf path body")

    def skip(self, n, what):
        self._take(n, what)

    def count(self, min_bytes, what):
        """u64 element count, refused unless that many elements of at
        least min_bytes each fit in the unread bytes."""
        n = self.u64()
        remaining = len(self.data) - self.pos
        if n > remaining // min_bytes:
            raise ShortRead(
                "%d %s declared need at least %d bytes each, have %d"
                % (n, what, min_bytes, remaining)
            )
        return n

    def flag(self, what):
        v = self.u8()
        if v > 1:
            raise ValueError("%s flag must be 0 or 1, got %d" % (what, v))
        return v == 1

    def at_end(self):
        return self.pos == len(self.data)


def read_outcome(r):
    r.u32()  # status_code
    r.string()  # message
    r.f64()  # epsilon_charged
    denied = r.u8()
    if denied > 2:
        raise ValueError("budget_denied out of range")


def decode_record(payload):
    """Decodes one payload; returns (kind, lsn, identity-or-None,
    segment_seq-or-None). Raises ValueError on any schema violation."""
    r = Reader(payload)
    kind = r.u8()
    if kind not in KIND_NAMES:
        raise ValueError("unknown kind %d" % kind)
    lsn = r.u64()
    identity = None
    segment_seq = None
    if kind == 0:  # segment_header
        version = r.u32()
        if version != 1:
            raise ValueError("unsupported format version %d" % version)
        segment_seq = r.u64()
        identity = (r.u32(), r.u32(), r.f64(), r.u64(), r.u64())
    elif kind == 1:  # epoch_begin
        r.i64(), r.u64(), r.u64(), r.i64()
    elif kind in (2, 3):  # worker_arrival / task_arrival
        r.u64()  # event_index
        r.string()  # id
        flags = r.u8()
        if flags & FLAG_PACKED:
            r.u64()  # leaf code
        else:
            r.path()  # leaf digits
        if flags & FLAG_HAS_EPSILON:
            r.f64()
        read_outcome(r)
        if kind == 3:
            r.i64()  # task_slot
            if flags & FLAG_HAS_WORKER:
                r.string()
            r.f64()  # tree_distance
        elif flags & FLAG_HAS_WORKER:
            raise ValueError("worker flag on a non-task record")
    elif kind == 4:  # worker_departure
        r.u64()
        r.string()
        r.u8()
    elif kind == 5:  # quarantine
        r.u64()
        r.string()
        r.string()
    elif kind == 6:  # stream_fault
        r.u64()
        if r.u8() > 3:
            raise ValueError("fault_kind out of range")
    elif kind == 7:  # republish
        r.u64()
    if not r.at_end():
        raise ValueError(
            "trailing bytes after a complete record (kind %d)" % kind
        )
    return kind, lsn, identity, segment_seq


def decode_checkpoint(payload):
    """Decodes one checkpoint payload; returns (identity, wal_next_lsn).
    Raises ValueError on any schema violation."""
    r = Reader(payload)
    version = r.u32()
    if version != CKPT_VERSION:
        raise ValueError("unsupported version %d" % version)
    identity = (r.u32(), r.u32(), r.f64(), r.u64(), r.u64())
    r.skip(3 * 8, "cursor")
    wal_next_lsn = r.u64()
    r.skip(13 * 8, "report counters")
    for _ in range(r.count(14 * 8, "epochs")):
        r.skip(14 * 8, "epoch")
    for _ in range(r.count(4 + 1 + 4 + 1 + 8, "task outcomes")):
        r.string()  # task id
        code = r.u8()
        if code > MAX_STATUS_CODE:
            raise ValueError("status code %d out of range" % code)
        r.string()  # status message
        if r.flag("task worker"):
            r.string()
        r.f64()  # reported tree distance
    for _ in range(r.count(8 + 4 + 4, "quarantine records")):
        r.u64(), r.string(), r.string()
    r.flag("packed")
    r.u64(), r.u64()  # assigned_tasks, tree_epoch
    r.string()  # rng state
    for _ in range(r.count(4, "index slots")):
        r.string()
    r.skip(4 * r.count(4, "free index ids"), "free index ids")
    for _ in range(r.count(4 + 8 + 4 + 4 + 4, "workers")):
        r.string(), r.u64(), r.string(), r.u32(), r.u32()
    if r.flag("ledger"):
        r.skip(8 * 5, "ledger totals")
        for _ in range(2):  # epoch spends, lifetime spends
            for _ in range(r.count(4 + 8, "ledger spends")):
                r.string(), r.f64()
    for what in ("counters", "gauges"):
        for _ in range(r.count(4 + 8, what)):
            r.string(), r.u64()
    for _ in range(r.count(4 + 8 * (2 + HIST_BUCKETS), "histograms")):
        r.string()
        r.skip(8 * (2 + HIST_BUCKETS), "histogram")
    if not r.at_end():
        raise ValueError(
            "%d trailing bytes after the metrics section"
            % (len(r.data) - r.pos)
        )
    return identity, wal_next_lsn


def read_checkpoint(path):
    """Returns (identity, wal_next_lsn) of a valid checkpoint file, or
    (None, error message)."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        return None, "unreadable: %s" % e
    newline = blob.find(b"\n")
    if newline < 0:
        return None, "no header line"
    header = blob[:newline].decode("ascii", errors="replace").split(" ")
    if header[0] == "TBFCKPT1":
        return None, (
            "TBFCKPT1 is a text checkpoint from an older build; this "
            "build writes binary TBFCKPT2 checkpoints (start such runs fresh)"
        )
    if len(header) != 3 or header[0] != CKPT_MAGIC:
        return None, "bad magic (expected '%s <crc> <len>')" % CKPT_MAGIC
    if not re.fullmatch(r"[0-9a-f]{8}", header[1]):
        return None, "CRC field is not 8 hex digits: %r" % header[1]
    if not header[2].isdigit():
        return None, "payload length is not an integer"
    payload = blob[newline + 1 :]
    if len(payload) != int(header[2]):
        return None, (
            "payload length mismatch: header says %s, file has %d "
            "(truncated write?)" % (header[2], len(payload))
        )
    actual_crc = binascii.crc32(payload) & 0xFFFFFFFF
    if actual_crc != int(header[1], 16):
        return None, "CRC mismatch: header %s, payload %08x" % (
            header[1],
            actual_crc,
        )
    try:
        return decode_checkpoint(payload)
    except ValueError as e:
        return None, str(e)


def check_checkpoint(path):
    identity, detail = read_checkpoint(path)
    if identity is None:
        return _fail(path, detail)
    print("OK   %s (covers journal below lsn %d)" % (path, detail))
    return True


def _fail(where, message):
    print("FAIL %s: %s" % (where, message))
    return False


def check_dir(path):
    try:
        names = sorted(os.listdir(path))
    except OSError as e:
        return _fail(path, "unreadable: %s" % e)
    segments = [(int(m.group(1)), n) for n in names for m in [_SEG_RE.match(n)] if m]
    if not segments:
        return _fail(path, "no wal-*.seg segments")

    ok = True
    prev_seq = None
    first_lsn = None
    expected_lsn = None
    identity = None
    total_records = 0
    for seq, name in segments:
        seg_path = os.path.join(path, name)
        if prev_seq is not None and seq != prev_seq + 1:
            ok = _fail(seg_path, "segment sequence gap after %08d" % prev_seq)
        prev_seq = seq
        try:
            with open(seg_path, "rb") as f:
                blob = f.read()
        except OSError as e:
            ok = _fail(seg_path, "unreadable: %s" % e)
            continue
        offset = 0
        first = True
        while offset < len(blob):
            header = blob[offset : offset + 8]
            if len(header) < 8:
                ok = _fail(seg_path, "torn frame header at byte %d" % offset)
                break
            length, declared_crc = struct.unpack("<II", header)
            payload = blob[offset + 8 : offset + 8 + length]
            if len(payload) < length:
                ok = _fail(
                    seg_path,
                    "torn frame at byte %d (%d payload bytes of %d)"
                    % (offset, len(payload), length),
                )
                break
            actual_crc = binascii.crc32(payload) & 0xFFFFFFFF
            if actual_crc != declared_crc:
                ok = _fail(
                    seg_path,
                    "CRC mismatch at byte %d: frame %08x, payload %08x"
                    % (offset, declared_crc, actual_crc),
                )
                break
            try:
                kind, lsn, rec_identity, segment_seq = decode_record(payload)
            except ValueError as e:
                ok = _fail(seg_path, "record at byte %d: %s" % (offset, e))
                break
            if first:
                if kind != 0:
                    ok = _fail(seg_path, "segment does not start with a header")
                    break
                if segment_seq != seq:
                    ok = _fail(
                        seg_path,
                        "header claims seq %d, filename says %d"
                        % (segment_seq, seq),
                    )
                    break
                if identity is None:
                    identity = rec_identity
                elif rec_identity != identity:
                    ok = _fail(seg_path, "segment identity differs from scan head")
                    break
                first = False
            elif kind == 0:
                ok = _fail(seg_path, "segment header mid-segment at byte %d" % offset)
                break
            if expected_lsn is not None and lsn != expected_lsn:
                ok = _fail(
                    seg_path,
                    "LSN gap at byte %d: record %d, expected %d"
                    % (offset, lsn, expected_lsn),
                )
                break
            if first_lsn is None:
                first_lsn = lsn
            expected_lsn = lsn + 1
            total_records += 1
            offset += 8 + length
        else:
            if first:
                ok = _fail(seg_path, "empty segment (no header frame)")
    checkpoints = [n for n in names if _CKPT_RE.match(n)]
    for i, name in enumerate(checkpoints):  # ordinal ascending
        ckpt_path = os.path.join(path, name)
        ckpt_identity, detail = read_checkpoint(ckpt_path)
        if ckpt_identity is None:
            ok = _fail(ckpt_path, detail)
        elif identity is not None and ckpt_identity != identity:
            ok = _fail(ckpt_path, "run identity differs from the journal's")
        elif expected_lsn is not None and detail > expected_lsn:
            ok = _fail(
                ckpt_path,
                "covers journal below lsn %d, past its end at lsn %d"
                % (detail, expected_lsn),
            )
        elif (
            i + 1 == len(checkpoints)
            and first_lsn is not None
            and detail < first_lsn
        ):
            ok = _fail(
                ckpt_path,
                "covers journal below lsn %d, but the journal begins at "
                "lsn %d (unrecoverable gap)" % (detail, first_lsn),
            )
    if ok:
        print(
            "OK   %s (%d segments, %d records, next lsn %d, %d checkpoints)"
            % (path, len(segments), total_records, expected_lsn, len(checkpoints))
        )
    return ok


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="+", help="journal directories and checkpoint files"
    )
    parser.add_argument(
        "--expect-fail",
        action="store_true",
        help="invert the verdict: succeed only when every path FAILS "
        "(CI uses this to prove corrupted fixtures are rejected)",
    )
    args = parser.parse_args(argv)

    results = [
        check_dir(p) if os.path.isdir(p) else check_checkpoint(p)
        for p in args.paths
    ]
    if args.expect_fail:
        return 0 if not any(results) else 1
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
