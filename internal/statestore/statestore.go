// Package statestore is the durable-state subsystem of the live network
// server: periodic snapshots of a shard pool's full serving state plus a
// write-ahead log of control-loop deltas, so a daemon restart (or a shard
// migration — a migratable shard is exactly a snapshot plus a WAL tail)
// never loses the per-device history that drives energy-fair
// re-allocation.
//
// Two artifacts live in the state directory:
//
//   - Snapshots (snap-*.efss): a compact versioned binary encoding of a
//     State — every shard server's dedup/replay maps and counters, the
//     rolling per-device SNR/PRR tracker, the current allocation, the
//     downlink frame counters, and the allocation epoch — CRC-framed and
//     written via temp-file + fsync + atomic rename.
//
//   - WAL segments (wal-*.seg): the scenario JSONL delta stream reframed
//     as a replayable log. Each record is one line "w1 <seq> <crc> <delta
//     JSON>": the sequence number is strictly increasing across segments,
//     the CRC32 covers the JSON bytes, and segments rotate on size, age
//     (in server time), and on every snapshot, so pruning after a
//     snapshot can drop whole files.
//
// Recovery loads the newest snapshot that passes its CRC (falling back to
// older ones), then replays every WAL record with a sequence number above
// the snapshot's. A truncated or corrupted record at the very tail of the
// log — the signature of a crash mid-append — ends replay and is counted,
// not fatal; corruption in the middle of the log is an error.
//
// The package is on the determinism-critical list: all encoding is over
// sorted slices (bit-exact float rendering), rotation decisions take
// explicit server-time stamps, and the only wall-clock reads are the
// annotated fsync/snapshot latency diagnostics.
package statestore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"eflora/internal/stats"
)

// DefaultSnapshotInterval is the periodic snapshot cadence when Options
// leaves SnapshotInterval nil.
const DefaultSnapshotInterval = 30 * time.Second

// DefaultSegmentBytes is the WAL size-rotation threshold.
const DefaultSegmentBytes = 4 << 20

// DefaultSnapshotKeep is how many decodable snapshots are retained for
// fallback before older ones are pruned (the newest is always kept).
const DefaultSnapshotKeep = 2

// Options configures a Store.
type Options struct {
	// SnapshotInterval is the periodic snapshot cadence the daemon should
	// run. nil selects DefaultSnapshotInterval; a pointer to an explicit
	// zero (or negative) duration disables periodic snapshots — WAL-only
	// operation — mirroring the repo's pointer-zero convention (cf.
	// sim.Config.CaptureThresholdDB): a zero value must be
	// distinguishable from an unset one.
	SnapshotInterval *time.Duration

	// SegmentBytes rotates the open WAL segment once it exceeds this many
	// bytes (0 selects DefaultSegmentBytes).
	SegmentBytes int64

	// SegmentMaxAgeS rotates the open WAL segment once its first record
	// is older than this many seconds of server time (0 disables
	// age-based rotation). Ages are computed from the nowS stamps passed
	// to Append, never from the wall clock.
	SegmentMaxAgeS float64
}

// SnapshotCadence resolves the pointer-zero SnapshotInterval convention:
// it returns the effective cadence and whether periodic snapshots are
// enabled at all.
func (o Options) SnapshotCadence() (time.Duration, bool) {
	if o.SnapshotInterval == nil {
		return DefaultSnapshotInterval, true
	}
	if *o.SnapshotInterval <= 0 {
		return 0, false
	}
	return *o.SnapshotInterval, true
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// Store manages one state directory: an append-only WAL plus rotating
// snapshots. A Store is not safe for concurrent use — the daemon
// serializes appends, syncs, snapshots and recovery on its control-loop
// goroutine — with one exception: Metrics may be called from any
// goroutine at any time.
type Store struct {
	dir  string
	opts Options

	wal     *walWriter
	nextSeq uint64
	// snapSeq is the last sequence number folded into a written (or
	// recovered) snapshot — WAL lag is nextSeq-1-snapSeq.
	snapSeq    uint64
	nextSnapID uint64
	// repairDiscardedBytes counts torn-tail bytes truncated at Open;
	// surfaced through Recover and Metrics.
	repairDiscardedBytes uint64
	// scratch is the reused record-render buffer (single-writer).
	scratch []byte

	// metrics is the writer's own accounting. After every mutation the
	// writer publishes a copy into pub, under pubMu, which guards nothing
	// else and is held only for that copy — never across a write or an
	// fsync — so Metrics can read pub from another goroutine.
	metrics Metrics
	pubMu   sync.Mutex
	pub     Metrics
}

// Metrics is the store's operational accounting, exposed on /metrics by
// the daemon.
type Metrics struct {
	// WALSeq is the next sequence number to be issued; WALAppends and
	// WALBytes count records and payload bytes appended this process;
	// WALFsyncs counts Sync calls that reached the disk.
	WALSeq     uint64
	WALAppends uint64
	WALBytes   uint64
	WALFsyncs  uint64
	// WALLagRecords is how many appended records are not yet covered by a
	// snapshot — the replay debt a crash right now would incur.
	WALLagRecords uint64
	// Snapshots counts snapshots written this process; SnapshotBytes and
	// SnapshotSeconds describe the most recent one.
	Snapshots       uint64
	SnapshotBytes   uint64
	SnapshotSeconds float64
	// Recovery accounting from the last Recover on this store:
	// RecoveryReplayed counts WAL records replayed on top of the loaded
	// snapshot, RecoverySnapshotsSkipped snapshots that failed validation
	// before one loaded, and RecoveryDiscardedBytes torn-tail bytes
	// truncated at Open.
	RecoveryReplayed         uint64
	RecoverySnapshotsSkipped uint64
	RecoveryDiscardedBytes   uint64
	// FsyncSeconds is the power-of-two latency histogram of WAL fsyncs.
	FsyncSeconds stats.LatencyHistogram
}

// Open attaches to (creating if needed) the state directory. Existing WAL
// segments are scanned so new appends continue the sequence numbering;
// existing snapshots so new snapshots continue the ID numbering.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	s := &Store{dir: dir, opts: opts, nextSeq: 1}
	segs, snaps, err := s.scan()
	if err != nil {
		return nil, err
	}
	if len(snaps) > 0 {
		s.nextSnapID = snaps[len(snaps)-1].id + 1
	}
	// Repair the newest segment: truncate any torn tail a crash left, and
	// delete the segment outright if nothing valid survives (so the next
	// append's fresh segment name cannot collide with it). Older segments
	// were rotated with flush+fsync, so only the newest can be torn.
	for len(segs) > 0 {
		last := segs[len(segs)-1]
		lastSeq, n, discarded, err := repairSegment(last)
		if err != nil {
			return nil, err
		}
		s.repairDiscardedBytes += uint64(discarded)
		if n > 0 {
			s.nextSeq = lastSeq + 1
			break
		}
		if err := os.Remove(last.path); err != nil {
			return nil, fmt.Errorf("statestore: %w", err)
		}
		segs = segs[:len(segs)-1]
	}
	s.snapSeq = s.nextSeq - 1 // until told otherwise, no replay debt
	s.publish()
	return s, nil
}

// Dir returns the state directory.
func (s *Store) Dir() string { return s.dir }

// NextSeq returns the sequence number the next Append will use.
func (s *Store) NextSeq() uint64 { return s.nextSeq }

// Metrics returns a copy of the operational accounting as of the last
// completed Open, Append, Sync, WriteSnapshot or Recover. It is the one
// method that is safe to call concurrently with the others.
func (s *Store) Metrics() Metrics {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return s.pub
}

// publish copies the writer's accounting, with the derived WAL fields
// filled in, to where Metrics reads it. It does not allocate.
func (s *Store) publish() {
	s.pubMu.Lock()
	s.pub = s.metrics
	s.pub.WALSeq = s.nextSeq
	if s.nextSeq-1 >= s.snapSeq {
		s.pub.WALLagRecords = s.nextSeq - 1 - s.snapSeq
	}
	s.pub.RecoveryDiscardedBytes = s.repairDiscardedBytes
	s.pubMu.Unlock()
}

// Close flushes and closes the open WAL segment.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	err := s.closeWAL()
	return err
}

// segFile / snapFile describe directory entries found by scan.
type segFile struct {
	path     string
	startSeq uint64
}

type snapFile struct {
	path string
	id   uint64
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".efss"
)

func segPath(dir string, startSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, startSeq, segSuffix))
}

func snapPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, id, snapSuffix))
}

// scan lists the directory's WAL segments and snapshots, sorted ascending
// by start sequence / snapshot ID. Unrelated files are ignored.
func (s *Store) scan() ([]segFile, []snapFile, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("statestore: %w", err)
	}
	var segs []segFile
	var snaps []snapFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			hexPart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
			seq, err := strconv.ParseUint(hexPart, 16, 64)
			if err != nil {
				continue // not ours
			}
			segs = append(segs, segFile{path: filepath.Join(s.dir, name), startSeq: seq})
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			hexPart := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
			id, err := strconv.ParseUint(hexPart, 16, 64)
			if err != nil {
				continue
			}
			snaps = append(snaps, snapFile{path: filepath.Join(s.dir, name), id: id})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].startSeq < segs[j].startSeq })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].id < snaps[j].id })
	return segs, snaps, nil
}
