package statestore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"time"

	"eflora/internal/scenario"
)

// WAL record framing: one text line per record,
//
//	w1 <seq:%016x> <crc32:%08x> <delta-json>\n
//
// The magic pins the record version; the CRC32 (IEEE) covers exactly the
// JSON bytes. Text framing keeps segments greppable/tailable like the
// scenario delta stream they carry, while the fixed-width header makes
// truncation detection trivial: a line that does not parse is either a
// torn tail or corruption.
const (
	walMagic = "w1"
	// walHeaderLen = len("w1 ")+16+len(" ")+8+len(" ")
	walHeaderLen = 3 + 16 + 1 + 8 + 1
)

// WALRecord is one decoded WAL entry.
type WALRecord struct {
	Seq   uint64
	Delta scenario.Delta
}

func encodeWALRecord(seq uint64, payload []byte) []byte {
	buf := make([]byte, 0, walHeaderLen+len(payload)+1)
	buf = append(buf, walMagic...)
	buf = append(buf, ' ')
	buf = appendHex(buf, seq, 16)
	buf = append(buf, ' ')
	buf = appendHex(buf, uint64(crc32.ChecksumIEEE(payload)), 8)
	buf = append(buf, ' ')
	buf = append(buf, payload...)
	buf = append(buf, '\n')
	return buf
}

func appendHex(buf []byte, v uint64, width int) []byte {
	const digits = "0123456789abcdef"
	start := len(buf)
	buf = append(buf, make([]byte, width)...)
	for i := width - 1; i >= 0; i-- {
		buf[start+i] = digits[v&0xf]
		v >>= 4
	}
	return buf
}

// parseWALLine decodes one framed line (without the trailing newline).
func parseWALLine(line []byte) (seq uint64, payload []byte, err error) {
	if len(line) < walHeaderLen {
		return 0, nil, fmt.Errorf("statestore: wal record too short (%d bytes)", len(line))
	}
	if string(line[:2]) != walMagic || line[2] != ' ' || line[19] != ' ' || line[28] != ' ' {
		return 0, nil, fmt.Errorf("statestore: wal record framing mismatch")
	}
	seq, err = strconv.ParseUint(string(line[3:19]), 16, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("statestore: wal seq: %w", err)
	}
	want, err := strconv.ParseUint(string(line[20:28]), 16, 32)
	if err != nil {
		return 0, nil, fmt.Errorf("statestore: wal crc: %w", err)
	}
	payload = line[walHeaderLen:]
	if got := crc32.ChecksumIEEE(payload); got != uint32(want) {
		return 0, nil, fmt.Errorf("statestore: wal seq %d crc mismatch (got %08x want %08x)", seq, got, want)
	}
	return seq, payload, nil
}

// walWriter is the open segment.
type walWriter struct {
	f  *os.File
	bw *bufio.Writer
	// startSeq names the file; firstAtS is the nowS stamp of the first
	// record, driving age rotation; size counts bytes written (buffered
	// included).
	startSeq uint64
	firstAtS float64
	hasFirst bool
	size     int64
}

// Append frames delta as the next WAL record, rotating the open segment
// first if it is over the size or age threshold. The record lands in the
// writer's buffer; call Sync (or use AppendSync) to make it durable.
//
// The hot path is allocation-free in steady state: the whole record is
// rendered into a scratch buffer the store reuses across appends (the
// serving loop appends from a single goroutine, so one buffer suffices).
func (s *Store) Append(delta *scenario.Delta, nowS float64) (uint64, error) {
	if s.wal != nil && s.shouldRotate(nowS) {
		if err := s.closeWAL(); err != nil {
			return 0, err
		}
	}
	if s.wal == nil {
		if err := s.openWAL(); err != nil {
			return 0, err
		}
	}
	// Render header + payload into the reused scratch, then backfill the
	// CRC once the payload bytes are known.
	buf := s.scratch[:0]
	buf = append(buf, walMagic...)
	buf = append(buf, ' ')
	buf = appendHex(buf, s.nextSeq, 16)
	buf = append(buf, " 00000000 "...)
	buf = appendDeltaJSON(buf, delta)
	crc := crc32.ChecksumIEEE(buf[walHeaderLen:])
	appendHex(buf[20:20:28], uint64(crc), 8)
	buf = append(buf, '\n')
	s.scratch = buf
	if _, err := s.wal.bw.Write(buf); err != nil {
		return 0, fmt.Errorf("statestore: wal append: %w", err)
	}
	if !s.wal.hasFirst {
		s.wal.firstAtS = nowS
		s.wal.hasFirst = true
	}
	s.wal.size += int64(len(buf))
	seq := s.nextSeq
	s.nextSeq++
	s.metrics.WALAppends++
	s.metrics.WALBytes += uint64(len(buf))
	s.publish()
	return seq, nil
}

// AppendSync is Append followed by Sync — the caller needs the record on
// disk before acting on it.
func (s *Store) AppendSync(delta *scenario.Delta, nowS float64) (uint64, error) {
	seq, err := s.Append(delta, nowS)
	if err != nil {
		return 0, err
	}
	return seq, s.Sync()
}

// Sync flushes buffered records and fsyncs the open segment (group
// commit: one fsync covers every Append since the last Sync).
func (s *Store) Sync() error {
	if s.wal == nil {
		return nil
	}
	start := time.Now() //eflora:nondeterminism-ok fsync latency diagnostic only
	if err := s.wal.bw.Flush(); err != nil {
		return fmt.Errorf("statestore: wal flush: %w", err)
	}
	if err := s.wal.f.Sync(); err != nil {
		return fmt.Errorf("statestore: wal fsync: %w", err)
	}
	s.metrics.WALFsyncs++
	s.metrics.FsyncSeconds.Observe(time.Since(start)) //eflora:nondeterminism-ok fsync latency diagnostic only
	s.publish()
	return nil
}

func (s *Store) shouldRotate(nowS float64) bool {
	if s.wal.size >= s.opts.SegmentBytes {
		return true
	}
	if s.opts.SegmentMaxAgeS > 0 && s.wal.hasFirst && nowS-s.wal.firstAtS >= s.opts.SegmentMaxAgeS {
		return true
	}
	return false
}

func (s *Store) openWAL() error {
	path := segPath(s.dir, s.nextSeq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("statestore: open wal segment: %w", err)
	}
	s.wal = &walWriter{f: f, bw: bufio.NewWriterSize(f, 64<<10), startSeq: s.nextSeq}
	return nil
}

func (s *Store) closeWAL() error {
	w := s.wal
	s.wal = nil
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("statestore: wal flush: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("statestore: wal fsync: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("statestore: wal close: %w", err)
	}
	return nil
}

// rotateWAL closes the open segment (if any) so the next Append starts a
// fresh one — called by WriteSnapshot to anchor segment boundaries to
// snapshot epochs.
func (s *Store) rotateWAL() error {
	if s.wal == nil {
		return nil
	}
	return s.closeWAL()
}

// readSegment decodes one segment file. isLast selects the torn-tail
// policy: in the last segment a record that fails to parse ends the read
// with discarded counting the bytes dropped; anywhere else it is an
// error. Records must carry strictly increasing sequence numbers starting
// at the segment's name.
func readSegment(sf segFile, isLast bool) (recs []WALRecord, discarded int, err error) {
	f, err := os.Open(sf.path)
	if err != nil {
		return nil, 0, fmt.Errorf("statestore: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	wantSeq := sf.startSeq
	for {
		line, err := br.ReadBytes('\n')
		if len(line) == 0 && err == io.EOF {
			return recs, 0, nil
		}
		if err != nil && err != io.EOF {
			return nil, 0, fmt.Errorf("statestore: read %s: %w", sf.path, err)
		}
		torn := err == io.EOF // no trailing newline: torn final write
		clean := bytes.TrimSuffix(line, []byte("\n"))
		seq, payload, perr := parseWALLine(clean)
		if perr == nil && torn {
			// A record that parses but lacks its newline is still suspect
			// only in its completeness marker; the CRC already proved the
			// payload intact, so accept it.
			torn = false
		}
		if perr == nil && seq != wantSeq {
			perr = fmt.Errorf("statestore: wal %s: seq %d, want %d", sf.path, seq, wantSeq)
		}
		var d scenario.Delta
		if perr == nil {
			if jerr := json.Unmarshal(payload, &d); jerr != nil {
				perr = fmt.Errorf("statestore: wal seq %d payload: %w", seq, jerr)
			}
		}
		if perr != nil {
			if isLast {
				// Torn or corrupt tail of the newest segment: count what we
				// dropped (this record plus anything after it) and stop.
				n := len(line)
				for {
					rest, rerr := br.ReadBytes('\n')
					n += len(rest)
					if rerr != nil {
						break
					}
				}
				return recs, n, nil
			}
			return nil, 0, fmt.Errorf("statestore: wal %s: %w", sf.path, perr)
		}
		recs = append(recs, WALRecord{Seq: seq, Delta: d})
		wantSeq = seq + 1
		if torn {
			return recs, 0, nil
		}
	}
}

// repairSegment scans a segment's valid prefix and truncates anything
// after it — the torn tail a crash mid-append leaves behind. It returns
// the final valid sequence number, how many records survived, and how
// many bytes were cut. Only complete, CRC-clean, newline-terminated,
// strictly-sequenced records count toward the valid prefix.
func repairSegment(sf segFile) (lastSeq uint64, nRecords int, discarded int64, err error) {
	f, err := os.OpenFile(sf.path, os.O_RDWR, 0)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("statestore: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	var validBytes int64
	wantSeq := sf.startSeq
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) == 0 && rerr == io.EOF {
			break
		}
		if rerr != nil && rerr != io.EOF {
			return 0, 0, 0, fmt.Errorf("statestore: read %s: %w", sf.path, rerr)
		}
		ok := rerr == nil // a record without its newline is torn
		if ok {
			seq, _, perr := parseWALLine(line[:len(line)-1])
			ok = perr == nil && seq == wantSeq
		}
		if !ok {
			// Invalid prefix record: everything from here is discarded.
			st, serr := f.Stat()
			if serr != nil {
				return 0, 0, 0, fmt.Errorf("statestore: %w", serr)
			}
			discarded = st.Size() - validBytes
			if err := f.Truncate(validBytes); err != nil {
				return 0, 0, 0, fmt.Errorf("statestore: truncate %s: %w", sf.path, err)
			}
			if err := f.Sync(); err != nil {
				return 0, 0, 0, fmt.Errorf("statestore: fsync %s: %w", sf.path, err)
			}
			break
		}
		validBytes += int64(len(line))
		lastSeq = wantSeq
		nRecords++
		wantSeq++
	}
	return lastSeq, nRecords, discarded, nil
}
