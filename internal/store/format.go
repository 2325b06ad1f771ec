package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Log format. A log is an 8-byte magic header, then records carrying
// a CRC-32C over the record's key, length and value:
//
//	"RDBLOG2\n" ([8]byte magic)
//	[8 bytes key][4 bytes value length][4 bytes CRC-32C][value bytes] ...
//
// A flipped bit anywhere in a record — key, length, or payload — fails
// verification on recovery, which keeps the longest valid prefix.
const recHdr = 16 // [key 8][vlen 4][crc 4]

// logChunk is how far a log is grown ahead of its appends. An fsync of a
// file that grew since the last one is a commit of the filesystem's journal,
// which every log of the process queues for; an fsync of bytes written into
// blocks the file already owns flushes data alone. So a log never grows by an
// append: when one would cross the end of what the file owns (logState.alloc)
// a whole chunk of zeros is written there first, and one fsync in a few
// hundred covers a size change. Written zeros, not fallocate: an unwritten
// extent is converted through the journal again when data lands in it.
// Compaction pays for up to one chunk under the log's lock at every swap,
// which is what keeps the constant small.
//
// The invariant: every byte in [off, alloc) is a zero this process wrote
// after the file was last truncated (or what a record write that failed left
// of its record, which recovery treats as the torn tail it is). Nothing is
// durable or acknowledged because it lies below alloc — that still takes an
// fsync after the record's own write — and sixteen zero bytes are not a
// record (the CRC of a zero key and length is not zero), so recovery reads
// the tail as the end of the log.
const logChunk = 256 << 10

var zeroChunk [logChunk]byte

// logMagic opens every log. A file long enough to hold it that starts with
// anything else is not a log this store wrote — or is one whose header rotted
// — and opening it is an error, never a repair.
var logMagic = [8]byte{'R', 'D', 'B', 'L', 'O', 'G', '2', '\n'}

// crcTable is the Castagnoli polynomial, the standard storage CRC (SSE4.2
// hardware-accelerated on amd64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// putRecordHeader fills hdr for one record and returns it. This and
// recordCRC are the one definition of the record layout: appends, the
// compaction rewrite and recovery all go through them.
func putRecordHeader(hdr []byte, key uint64, value []byte) []byte {
	hdr = hdr[:recHdr]
	binary.BigEndian.PutUint64(hdr[:8], key)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(value)))
	binary.BigEndian.PutUint32(hdr[12:16], recordCRC(hdr, value))
	return hdr
}

// recordCRC is the checksum a record's header must carry: CRC-32C over the
// header's key and length fields, then the value.
func recordCRC(hdr, value []byte) uint32 {
	return crc32.Update(crc32.Checksum(hdr[:12], crcTable), crcTable, value)
}

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

// logState is where a log's records end; the store embeds it as its log
// bookkeeping, appends advance it, and a compaction swap replaces it
// wholesale. Which records are live is the table's to say (see liveBytes).
type logState struct {
	off   int64 // append offset
	alloc int64 // end of the zeros written ahead of off (see logChunk); >= off
	total int64 // bytes of all records (excluding the file header)
}

// liveBytes is what the latest record of every key in t takes in a log: a
// rewrite from t is exactly this long, and a log holding more holds
// superseded records.
func liveBytes(t *table) int64 {
	return int64(t.index.len())*recHdr + int64(t.bytes)
}

// extend grows f by whole chunks of zeros until it owns every byte below end.
func (st *logState) extend(f *os.File, end int64) error {
	for st.alloc < end {
		if _, err := f.WriteAt(zeroChunk[:], st.alloc); err != nil {
			return err
		}
		st.alloc += logChunk
	}
	return nil
}

// encodeRecords packs kvs into one contiguous buffer of log records (one
// write syscall per append batch regardless of record count): buf's array
// if it is large enough, a new one otherwise.
func encodeRecords(buf []byte, kvs []KV) []byte {
	size := 0
	for i := range kvs {
		size += recHdr + len(kvs[i].Value)
	}
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	at := 0
	for i := range kvs {
		putRecordHeader(buf[at:], kvs[i].Key, kvs[i].Value)
		copy(buf[at+recHdr:], kvs[i].Value)
		at += recHdr + len(kvs[i].Value)
	}
	return buf
}

// openLog opens (or creates) the record log at path and recovers it into m:
// the returned handle and state are ready for appends.
//
//   - a log (magic header) verifies every record's CRC-32C and keeps the
//     longest valid prefix — a torn tail or a flipped byte anywhere
//     truncates the log at the first bad record, and so do the zeros an
//     unclean stop leaves ahead of the last append (see logChunk);
//   - a file shorter than the header is a torn first write and is
//     (re)initialized as an empty log;
//   - any other file is an error, and is left exactly as it was found.
//
// torn is how many bytes were cut off behind a tail that was not zeros.
func openLog(path string, m *MemStore) (f *os.File, st logState, torn int64, err error) {
	f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, logState{}, 0, fmt.Errorf("opening log: %w", err)
	}
	if st, torn, err = recoverLog(f, m); err != nil {
		f.Close()
		return nil, logState{}, 0, fmt.Errorf("%s: %w", path, err)
	}
	return f, st, torn, nil
}

// recoverLog scans an open record log, putting every record that verifies
// into m as it goes — a later record of a key overwrites an earlier one, as
// the append did — and cuts the file to its valid prefix, so alloc == off on
// return and the first append extends the log again. A tail that starts
// with a zero header is what pre-extension leaves and is a clean end; any
// other tail is a torn or rotted record, and torn reports how many bytes
// went with it.
func recoverLog(f *os.File, m *MemStore) (st logState, torn int64, err error) {
	st = logState{off: int64(len(logMagic))}
	fi, err := f.Stat()
	if err != nil {
		return st, 0, fmt.Errorf("stat log: %w", err)
	}
	size := fi.Size() // invariant during the scan (only Truncate shrinks it)
	if size < int64(len(logMagic)) {
		// At most a torn magic. Write the header and fsync it before any
		// record can follow: the filesystem may persist pages in any order,
		// and a crash that kept later record pages but dropped an unsynced
		// header would leave a file the next open refuses.
		if err := f.Truncate(0); err != nil {
			return st, 0, fmt.Errorf("truncating torn log: %w", err)
		}
		if _, err := f.WriteAt(logMagic[:], 0); err != nil {
			return st, 0, fmt.Errorf("writing log header: %w", err)
		}
		if err := f.Sync(); err != nil {
			return st, 0, fmt.Errorf("syncing log header: %w", err)
		}
		st.alloc = st.off
		return st, 0, nil
	}
	var magic [len(logMagic)]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		return st, 0, fmt.Errorf("reading log header: %w", err)
	}
	if magic != logMagic {
		return st, 0, fmt.Errorf("not a record log: header %q, want %q", magic[:], logMagic[:])
	}
	var hdr [recHdr]byte
	var val []byte
	for {
		// ReadAt on a file reports a short read as io.EOF with the bytes it
		// did get: none is the clean end of the log, some is a torn header.
		n, err := f.ReadAt(hdr[:], st.off)
		if err == io.EOF && n == 0 {
			break
		}
		truncate := err == io.EOF
		if err != nil && !truncate {
			return st, 0, fmt.Errorf("scanning log: %w", err)
		}
		var key uint64
		var vlen uint32
		if !truncate {
			key = binary.BigEndian.Uint64(hdr[:8])
			vlen = binary.BigEndian.Uint32(hdr[8:12])
			if st.off+recHdr+int64(vlen) > size {
				truncate = true // torn value (or a corrupt length field)
			}
		}
		if !truncate {
			if int(vlen) > cap(val) {
				val = make([]byte, vlen)
			}
			val = val[:vlen]
			if _, err := f.ReadAt(val, st.off+recHdr); err != nil {
				return st, 0, fmt.Errorf("scanning log: %w", err)
			}
			// A CRC mismatch means corruption (torn write or bit rot) at
			// this record; everything before it verified, so keep the
			// longest valid prefix and discard the rest.
			truncate = recordCRC(hdr[:], val) != binary.BigEndian.Uint32(hdr[12:16])
		}
		if truncate {
			if !bytes.Equal(hdr[:n], zeroChunk[:n]) {
				torn = size - st.off
			}
			if terr := f.Truncate(st.off); terr != nil {
				return st, 0, fmt.Errorf("truncating corrupt log: %w", terr)
			}
			break
		}
		if err := m.Put(key, val); err != nil {
			return st, 0, err
		}
		st.off += recHdr + int64(vlen)
		st.total += recHdr + int64(vlen)
	}
	st.alloc = st.off
	return st, torn, nil
}

// rewriteLiveRecords is the compaction rewrite: the value of every key in
// values is written to a fresh log that atomically replaces logPath, from
// memory and in one sequential write stream — the store's writers are
// stalled for as long as this takes. The crash-safety ladder — temp file,
// fsync, rename, directory fsync — keeps the original log the authoritative
// copy until the rename lands, so a crash at any point leaves either the
// old log or the complete new one, never a mix. The temp file is removed on
// every failure path, including a failed fsync. On success the returned
// file handle is the renamed log, zero-padded to its next chunk boundary
// (see logChunk).
func rewriteLiveRecords(values *table, logPath string) (*os.File, logState, error) {
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
	var hdr [recHdr]byte
	values.index.each(func(key uint64, _ *entry) {
		val, _ := values.get(key)
		w.Write(putRecordHeader(hdr[:], key, val)) // a failed write is sticky: Flush reports it
		w.Write(val)
	})
	st := logState{total: liveBytes(values)}
	st.off = int64(len(logMagic)) + st.total
	// Pad to the next chunk boundary so the appends that follow the swap find
	// the log already grown, and the growth rides on the fsync below.
	st.alloc = (st.off + logChunk - 1) / logChunk * logChunk
	w.Write(zeroChunk[:st.alloc-st.off])
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
