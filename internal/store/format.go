package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Log format. Every shard log is written in one record-log layout (v2): an
// 8-byte magic header, then records carrying a CRC-32C over the record
// header and value:
//
//	"RDBLOG2\n" ([8]byte magic)
//	[8 bytes key][4 bytes value length][4 bytes CRC-32C][value bytes] ...
//
// The CRC is computed over the first 12 header bytes plus the value, so
// a flipped bit anywhere in a record — key, length, or payload — fails
// verification on recovery, which keeps the longest valid prefix.
//
// A v1 log (the seed format) is a bare sequence of CRC-less records:
//
//	[8 bytes key][4 bytes value length][value bytes]
//
// It is only ever read: open upgrades a v1 log once, through the
// compaction rewrite (rewriteLiveRecords), whose rename makes the upgrade
// atomic — a crash leaves the whole v1 log or the whole v2 one, so no log
// ever mixes formats and every append is v2.
const (
	recHdrV1 = 12 // [key 8][vlen 4]
	recHdrV2 = 16 // [key 8][vlen 4][crc 4]
)

// recordRef locates one record's value bytes inside its log.
type recordRef struct {
	off    int64
	length uint32
}

// logMagic marks a v2 log. A v1 log at least one record long starts with
// its first record's 8-byte key instead; a v1 log shorter than one header
// is a torn tail under v1 rules and is truncated to empty either way.
// Known limitation: a pre-upgrade v1 log whose first record's key happens
// to equal these exact 8 bytes (0x5244424C4F47320A) would be misdetected
// as v2. Accepted: the collision needs that one adversarial key first in
// a seed-era log, and the alternative — per-log format sidecars — adds a
// second crash-ordering problem to solve a 2^-64 one.
var logMagic = [8]byte{'R', 'D', 'B', 'L', 'O', 'G', '2', '\n'}

// crcTable is the Castagnoli polynomial, the standard storage CRC (SSE4.2
// hardware-accelerated on amd64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// compactTmpPattern names in-flight compaction rewrites. A crash leaves
// the temp file behind and the original log authoritative; open removes
// the strays.
const compactTmpPattern = ".compact-*"

// Compaction knob defaults (see ShardedDiskOptions).
const (
	// DefaultCompactRatio is the garbage fraction (dead bytes / total log
	// bytes) past which MaybeCompact rewrites a log.
	DefaultCompactRatio = 0.5
	// DefaultCompactMinBytes is the log size below which MaybeCompact
	// never bothers: rewriting a tiny log cannot reclaim enough to pay
	// for the write stall.
	DefaultCompactMinBytes = 1 << 20
)

// resolveCompactKnobs maps the knob convention (0 = default, negative =
// disabled / no floor) onto concrete thresholds.
func resolveCompactKnobs(ratio float64, minBytes int64) (float64, int64) {
	if ratio == 0 {
		ratio = DefaultCompactRatio
	}
	switch {
	case minBytes == 0:
		minBytes = DefaultCompactMinBytes
	case minBytes < 0:
		minBytes = 0
	}
	return ratio, minBytes
}

// shouldCompact applies the garbage-ratio trigger: the log must clear the
// size floor and hold at least ratio dead bytes per total byte.
func shouldCompact(live, total int64, ratio float64, minBytes int64) bool {
	if ratio < 0 || total < minBytes {
		return false
	}
	garbage := total - live
	return garbage > 0 && float64(garbage) >= ratio*float64(total)
}

// logState is everything recovery (or compaction) learns about one log;
// each shard embeds it as its per-log bookkeeping, so appends maintain it
// through account and a compaction swap replaces it wholesale.
type logState struct {
	index map[uint64]recordRef
	off   int64 // append offset
	live  int64 // bytes of records still reachable through the index
	total int64 // bytes of all records (excluding the file header)
}

// account updates the live/total byte counters and the index for one
// appended record, subtracting the record the key previously pointed at.
func (st *logState) account(key uint64, valueOff int64, vlen uint32) {
	rec := recHdrV2 + int64(vlen)
	st.total += rec
	if old, ok := st.index[key]; ok {
		st.live -= recHdrV2 + int64(old.length)
	}
	st.live += rec
	st.index[key] = recordRef{off: valueOff, length: vlen}
}

// encodeRecords packs kvs into one contiguous buffer of log records (one
// write syscall per append batch regardless of record count).
func encodeRecords(kvs []KV) []byte {
	size := 0
	for i := range kvs {
		size += recHdrV2 + len(kvs[i].Value)
	}
	buf := make([]byte, size)
	at := 0
	for i := range kvs {
		binary.BigEndian.PutUint64(buf[at:at+8], kvs[i].Key)
		binary.BigEndian.PutUint32(buf[at+8:at+12], uint32(len(kvs[i].Value)))
		crc := crc32.Checksum(buf[at:at+12], crcTable)
		crc = crc32.Update(crc, crcTable, kvs[i].Value)
		binary.BigEndian.PutUint32(buf[at+12:at+16], crc)
		copy(buf[at+recHdrV2:], kvs[i].Value)
		at += recHdrV2 + len(kvs[i].Value)
	}
	return buf
}

// openLog opens (or creates) the record log at path and recovers it: the
// returned handle and state are ready for appends, which are always v2.
//
//   - a v2 log (magic header) verifies every record's CRC-32C and keeps
//     the longest valid prefix — a torn tail or a flipped byte anywhere
//     truncates the log at the first bad record;
//   - a v1 log (no header) is read with the pre-CRC rules — only a torn
//     final record is detected and discarded — and its live records are
//     rewritten to a v2 log that atomically replaces it, before the store
//     sees it. A crash mid-upgrade leaves the v1 log authoritative and a
//     stray temp file the next open removes, and the upgrade runs again;
//   - an empty or sub-header log is (re)initialized as v2.
func openLog(path string) (*os.File, logState, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, logState{}, fmt.Errorf("opening log: %w", err)
	}
	st, v1, err := recoverLog(f)
	if err != nil {
		f.Close()
		return nil, logState{}, err
	}
	if !v1 {
		return f, st, nil
	}
	upgraded, st, err := rewriteLiveRecords(f, st.index, path)
	f.Close()
	if err != nil {
		return nil, logState{}, fmt.Errorf("upgrading v1 log: %w", err)
	}
	return upgraded, st, nil
}

// recoverLog scans an open record log, rebuilding the key index and the
// live/total byte accounting. v1 reports a pre-CRC log: its state carries
// only the index, enough for the upgrade rewrite and nothing else.
func recoverLog(f *os.File) (st logState, v1 bool, err error) {
	fi, err := f.Stat()
	if err != nil {
		return st, false, fmt.Errorf("stat log: %w", err)
	}
	size := fi.Size() // invariant during the scan (only Truncate shrinks it)
	if size >= int64(len(logMagic)) {
		var magic [len(logMagic)]byte
		if _, err := f.ReadAt(magic[:], 0); err != nil {
			return st, false, fmt.Errorf("reading log header: %w", err)
		}
		if magic == logMagic {
			st, err = recoverV2(f, size)
			return st, false, err
		}
	}
	if size >= recHdrV1 {
		st.index, err = recoverV1(f, size)
		return st, true, err
	}
	// Too short to be either format: at most a torn v1 header or a torn
	// v2 magic, both of which truncate to empty. Initialize as v2 and
	// fsync the header before any record can follow it: the filesystem
	// may persist pages in any order, and a crash that kept later record
	// pages but dropped the unsynced header would make the next recovery
	// misread a v2 log as v1 — no CRCs, records parsed 4 bytes off — and
	// build a garbage index instead of a clean empty log.
	if err := f.Truncate(0); err != nil {
		return st, false, fmt.Errorf("truncating torn log: %w", err)
	}
	if _, err := f.WriteAt(logMagic[:], 0); err != nil {
		return st, false, fmt.Errorf("writing log header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return st, false, fmt.Errorf("syncing log header: %w", err)
	}
	st.index = make(map[uint64]recordRef)
	st.off = int64(len(logMagic))
	return st, false, nil
}

// recoverV1 is the read side of the v1 upgrade: it indexes the latest
// record of every key in a pre-CRC log, stopping at a torn final record.
// The log itself is left untouched — it stays authoritative until the
// upgrade's rename replaces it.
func recoverV1(f *os.File, size int64) (map[uint64]recordRef, error) {
	index := make(map[uint64]recordRef)
	var hdr [recHdrV1]byte
	for off := int64(0); off+recHdrV1 <= size; {
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return nil, fmt.Errorf("scanning v1 log: %w", err)
		}
		key := binary.BigEndian.Uint64(hdr[:8])
		vlen := binary.BigEndian.Uint32(hdr[8:])
		end := off + recHdrV1 + int64(vlen)
		if end > size {
			break // torn value
		}
		index[key] = recordRef{off: off + recHdrV1, length: vlen}
		off = end
	}
	return index, nil
}

func recoverV2(f *os.File, size int64) (logState, error) {
	st := logState{index: make(map[uint64]recordRef)}
	var hdr [recHdrV2]byte
	var val []byte
	off := int64(len(logMagic))
	for {
		_, err := f.ReadAt(hdr[:], off)
		if err == io.EOF {
			break
		}
		truncate := err == io.ErrUnexpectedEOF
		if err != nil && !truncate {
			return st, fmt.Errorf("scanning log: %w", err)
		}
		var key uint64
		var vlen, want uint32
		if !truncate {
			key = binary.BigEndian.Uint64(hdr[:8])
			vlen = binary.BigEndian.Uint32(hdr[8:12])
			want = binary.BigEndian.Uint32(hdr[12:16])
			if off+recHdrV2+int64(vlen) > size {
				truncate = true // torn value (or a corrupt length field)
			}
		}
		if !truncate {
			if int(vlen) > cap(val) {
				val = make([]byte, vlen)
			}
			val = val[:vlen]
			if _, err := f.ReadAt(val, off+recHdrV2); err != nil {
				return st, fmt.Errorf("scanning log: %w", err)
			}
			crc := crc32.Checksum(hdr[:recHdrV1], crcTable)
			crc = crc32.Update(crc, crcTable, val)
			// A CRC mismatch means corruption (torn write or bit rot) at
			// this record; everything before it verified, so keep the
			// longest valid prefix and discard the rest.
			truncate = crc != want
		}
		if truncate {
			if terr := f.Truncate(off); terr != nil {
				return st, fmt.Errorf("truncating corrupt log: %w", terr)
			}
			break
		}
		st.account(key, off+recHdrV2, vlen)
		off += recHdrV2 + int64(vlen)
	}
	st.off = off
	return st, nil
}

// rewriteLiveRecords is the compaction rewrite (and the v1 upgrade): every
// record still reachable through index is read back from src and written
// to a fresh v2 log that atomically replaces logPath. The crash-safety ladder is the
// persistShardMeta discipline — temp file, fsync, rename, directory
// fsync — so the original log stays the authoritative copy until the
// rename lands, and a crash at any point leaves either the old log or the
// complete new one, never a mix. The temp file is removed on every
// failure path, including a failed fsync. On success the returned file
// handle is the renamed log.
func rewriteLiveRecords(src *os.File, index map[uint64]recordRef, logPath string) (*os.File, logState, error) {
	dir := filepath.Dir(logPath)
	tmp, err := os.CreateTemp(dir, compactTmpPattern)
	if err != nil {
		return nil, logState{}, fmt.Errorf("store: compacting %s: %w", filepath.Base(logPath), err)
	}
	fail := func(err error) (*os.File, logState, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, logState{}, fmt.Errorf("store: compacting %s: %w", filepath.Base(logPath), err)
	}
	w := bufio.NewWriterSize(tmp, 1<<16)
	if _, err := w.Write(logMagic[:]); err != nil {
		return fail(err)
	}
	st := logState{index: make(map[uint64]recordRef, len(index))}
	st.off = int64(len(logMagic))
	var hdr [recHdrV2]byte
	var val []byte
	for key, ref := range index {
		if int(ref.length) > cap(val) {
			val = make([]byte, ref.length)
		}
		val = val[:ref.length]
		if _, err := src.ReadAt(val, ref.off); err != nil {
			return fail(fmt.Errorf("reading live record %d: %w", key, err))
		}
		binary.BigEndian.PutUint64(hdr[:8], key)
		binary.BigEndian.PutUint32(hdr[8:12], ref.length)
		crc := crc32.Checksum(hdr[:recHdrV1], crcTable)
		crc = crc32.Update(crc, crcTable, val)
		binary.BigEndian.PutUint32(hdr[12:16], crc)
		if _, err := w.Write(hdr[:]); err != nil {
			return fail(err)
		}
		if _, err := w.Write(val); err != nil {
			return fail(err)
		}
		st.account(key, st.off+recHdrV2, ref.length)
		st.off += recHdrV2 + int64(ref.length)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	_ = tmp.Chmod(0o644) // match the log perms CreateTemp's 0600 misses
	if err := os.Rename(tmp.Name(), logPath); err != nil {
		return fail(err)
	}
	syncDir(dir) // make the rename itself durable; best effort
	return tmp, st, nil
}

// syncDir fsyncs a directory so a just-renamed file survives a crash;
// best effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// removeCompactTemps deletes compaction temp files a crash left behind.
// Safe by construction: a temp file only becomes meaningful by being
// renamed over the log, so an orphan is garbage regardless of content.
func removeCompactTemps(dir string) {
	strays, err := filepath.Glob(filepath.Join(dir, compactTmpPattern))
	if err != nil {
		return
	}
	for _, p := range strays {
		_ = os.Remove(p)
	}
}
