package statestore

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"eflora/internal/ingest"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/netserver"
	"eflora/internal/scenario"
)

// testState builds a representative State exercising every codec path:
// multiple shards, pending frames with uplink copies, tracker entries,
// allocation vectors, downlink counters, and awkward floats.
func testState() *State {
	return &State{
		Epoch:       3,
		Seq:         41,
		UplinkCount: 12345,
		TakenAtS:    678.25,
		Pool: ingest.PoolState{
			Shards: []netserver.State{
				{
					Counters: netserver.Counters{Uplinks: 100, Delivered: 90, Duplicates: 7, Rejected: 3},
					Devices: []netserver.DeviceState{
						{DevAddr: 1, LastFCnt: 10},
						{DevAddr: 5, LastFCnt: 0},
					},
					Pending: []netserver.PendingState{
						{
							DevAddr: 5, FCnt: 11, FPort: 2,
							Payload:  []byte{0xde, 0xad},
							FirstAtS: 677.5,
							Copies: []netserver.Uplink{
								{Gateway: 0, ReceivedAtS: 677.5, RSSIdBm: -97.5, SNRdB: 3.25, PHYPayload: []byte{1, 2, 3}},
								{Gateway: 1, ReceivedAtS: 677.5, RSSIdBm: -104, SNRdB: -1.5, PHYPayload: []byte{1, 2, 3}},
							},
						},
					},
				},
				{
					Counters: netserver.Counters{Uplinks: 50, Delivered: 50},
				},
			},
			MaxSeenS: []float64{678.25, math.Inf(-1)},
		},
		Tracker: []ingest.TrackerEntry{
			{DevAddr: 1, Stats: ingest.DevStats{EwmaSNRdB: 2.625, LastFCnt: 10, Received: 9, Expected: 10}},
			{DevAddr: 5, Stats: ingest.DevStats{EwmaSNRdB: -0.125, LastFCnt: 10, Received: 8, Expected: 11}},
		},
		Alloc:      testAlloc(),
		Reassigned: 4,
		FCntDown: []FCntDownEntry{
			{DevAddr: 1, FCnt: 2},
			{DevAddr: 5, FCnt: 1},
		},
	}
}

func testAlloc() model.Allocation {
	return model.Allocation{
		SF:      []lora.SF{lora.SF7, lora.SF9, lora.SF12},
		TPdBm:   []float64{2, 8, 14},
		Channel: []int{0, 1, 2},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func mustAppendSync(t *testing.T, s *Store, d *scenario.Delta, nowS float64) uint64 {
	t.Helper()
	seq, err := s.AppendSync(d, nowS)
	if err != nil {
		t.Fatalf("AppendSync: %v", err)
	}
	return seq
}

func delta(atS float64, device, sf int) *scenario.Delta {
	return &scenario.Delta{
		Version: scenario.CurrentVersion,
		AtS:     atS,
		Changes: []scenario.DeltaChange{{Device: device, SF: sf, TPdBm: 8, Channel: 1}},
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	st := testState()
	img := EncodeSnapshot(st)
	got, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if got.Epoch != st.Epoch || got.Seq != st.Seq || got.UplinkCount != st.UplinkCount || got.TakenAtS != st.TakenAtS {
		t.Fatalf("envelope mismatch: got %+v", got)
	}
	if got.Digest() != st.Digest() {
		t.Fatalf("digest mismatch after roundtrip")
	}
	// Bit-exactness down to the float level: -Inf shard clock survives.
	if !math.IsInf(got.Pool.MaxSeenS[1], -1) {
		t.Fatalf("MaxSeenS[1] = %v, want -Inf", got.Pool.MaxSeenS[1])
	}
	if got.Pool.Shards[0].Pending[0].Copies[1].SNRdB != -1.5 {
		t.Fatalf("pending copy SNR = %v", got.Pool.Shards[0].Pending[0].Copies[1].SNRdB)
	}
}

func TestSnapshotDigestIgnoresEnvelope(t *testing.T) {
	a, b := testState(), testState()
	b.Epoch, b.Seq, b.UplinkCount, b.TakenAtS = 99, 999, 9999, 1e6
	if a.Digest() != b.Digest() {
		t.Fatalf("digest must ignore the envelope (oracle vs recovered cadence)")
	}
	b.Tracker[0].Stats.EwmaSNRdB = math.Nextafter(b.Tracker[0].Stats.EwmaSNRdB, 100)
	if a.Digest() == b.Digest() {
		t.Fatalf("digest must catch a 1-ulp body difference")
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	img := EncodeSnapshot(testState())
	cases := map[string]func([]byte) []byte{
		"short":       func(b []byte) []byte { return b[:10] },
		"magic":       func(b []byte) []byte { b[0] = 'X'; return b },
		"version":     func(b []byte) []byte { b[4] = 99; return b },
		"payload-bit": func(b []byte) []byte { b[snapHeaderLen+5] ^= 0x40; return b },
		"crc":         func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"truncated":   func(b []byte) []byte { return b[:len(b)-9] },
		"trailing":    func(b []byte) []byte { return append(b, 0) },
	}
	for name, mut := range cases {
		img2 := mut(append([]byte(nil), img...))
		if _, err := DecodeSnapshot(img2); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

func TestWALAppendRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		seq := mustAppendSync(t, s, delta(float64(i), i, 7+i%3), float64(i))
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	if s2.NextSeq() != 6 {
		t.Fatalf("NextSeq after reopen = %d, want 6", s2.NextSeq())
	}
	rec, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.Snapshot != nil {
		t.Fatalf("unexpected snapshot on cold start")
	}
	if len(rec.Tail) != 5 {
		t.Fatalf("tail = %d records, want 5", len(rec.Tail))
	}
	for i, r := range rec.Tail {
		if r.Seq != uint64(i+1) || r.Delta.Changes[0].Device != i {
			t.Fatalf("tail[%d] = seq %d device %d", i, r.Seq, r.Delta.Changes[0].Device)
		}
	}
}

func TestWALSegmentRotationBySize(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 200})
	for i := 0; i < 10; i++ {
		mustAppendSync(t, s, delta(float64(i), i, 7), float64(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _, err := s.scan()
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected >=3 segments at 200-byte rotation, got %d", len(segs))
	}
	// All records must still read back in order across the segment chain.
	s2 := mustOpen(t, dir, Options{})
	rec, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rec.Tail) != 10 {
		t.Fatalf("tail = %d, want 10", len(rec.Tail))
	}
}

func TestWALSegmentRotationByAge(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentMaxAgeS: 10})
	mustAppendSync(t, s, delta(0, 0, 7), 0)
	mustAppendSync(t, s, delta(5, 1, 7), 5)   // same segment: age 5 < 10
	mustAppendSync(t, s, delta(11, 2, 7), 11) // rotates: age 11 >= 10
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _, err := s.scan()
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(segs) != 2 {
		t.Fatalf("expected 2 segments after age rotation, got %d", len(segs))
	}
}

func TestWALTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 3; i++ {
		mustAppendSync(t, s, delta(float64(i), i, 7), float64(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-append: half a record at the tail.
	segs, _, err := s.scan()
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	path := segs[len(segs)-1].path
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("w1 00000000000000"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, dir, Options{})
	if s2.NextSeq() != 4 {
		t.Fatalf("NextSeq = %d, want 4 (torn tail dropped)", s2.NextSeq())
	}
	rec, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rec.Tail) != 3 {
		t.Fatalf("tail = %d, want 3", len(rec.Tail))
	}
	if rec.DiscardedBytes == 0 {
		t.Fatalf("DiscardedBytes = 0, want > 0")
	}
	// Appends must resume the sequence cleanly after repair.
	if seq := mustAppendSync(t, s2, delta(9, 0, 8), 9); seq != 4 {
		t.Fatalf("post-repair seq = %d, want 4", seq)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s3 := mustOpen(t, dir, Options{})
	rec3, err := s3.Recover()
	if err != nil {
		t.Fatalf("Recover after repair+append: %v", err)
	}
	if len(rec3.Tail) != 4 {
		t.Fatalf("tail = %d, want 4", len(rec3.Tail))
	}
}

func TestWALFullyCorruptLastSegmentDeleted(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustAppendSync(t, s, delta(0, 0, 7), 0)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A second segment whose every byte is garbage (e.g. a crash during
	// the very first write after rotation).
	if err := os.WriteFile(segPath(dir, 2), []byte("garbage with no newline"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	if s2.NextSeq() != 2 {
		t.Fatalf("NextSeq = %d, want 2", s2.NextSeq())
	}
	if _, err := os.Stat(segPath(dir, 2)); !os.IsNotExist(err) {
		t.Fatalf("fully corrupt segment not deleted: %v", err)
	}
	if seq := mustAppendSync(t, s2, delta(1, 0, 8), 1); seq != 2 {
		t.Fatalf("seq = %d, want 2", seq)
	}
}

func TestWALMidLogCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 1}) // one record per segment
	for i := 0; i < 3; i++ {
		mustAppendSync(t, s, delta(float64(i), i, 7), float64(i))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _, err := s.scan()
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(segs) != 3 {
		t.Fatalf("want 3 single-record segments, got %d", len(segs))
	}
	// Flip a payload bit in the MIDDLE segment: not a torn tail, an
	// integrity violation.
	buf, err := os.ReadFile(segs[1].path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-2] ^= 0x01
	if err := os.WriteFile(segs[1].path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	if _, err := s2.Recover(); err == nil {
		t.Fatalf("mid-log corruption silently accepted")
	}
}

func TestWriteSnapshotRecoverAndPrune(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 1})
	for i := 0; i < 3; i++ {
		mustAppendSync(t, s, delta(float64(i), i, 7), float64(i))
	}
	st := testState()
	st.Seq = s.NextSeq() - 1
	if err := s.WriteSnapshot(st); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	// Two more deltas after the snapshot: the replay tail.
	mustAppendSync(t, s, delta(10, 0, 8), 10)
	mustAppendSync(t, s, delta(11, 1, 9), 11)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, Options{})
	rec, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.Snapshot == nil {
		t.Fatalf("no snapshot recovered")
	}
	if rec.Snapshot.Seq != 3 {
		t.Fatalf("snapshot Seq = %d, want 3", rec.Snapshot.Seq)
	}
	if rec.Snapshot.Digest() != st.Digest() {
		t.Fatalf("recovered snapshot digest mismatch")
	}
	if len(rec.Tail) != 2 || rec.Tail[0].Seq != 4 || rec.Tail[1].Seq != 5 {
		t.Fatalf("tail = %+v, want seqs 4,5", rec.Tail)
	}
	m := s2.Metrics()
	if m.RecoveryReplayed != 2 {
		t.Fatalf("RecoveryReplayed = %d, want 2", m.RecoveryReplayed)
	}

	// A second snapshot absorbing everything prunes segments the oldest
	// retained snapshot no longer needs, and a third prunes the first
	// snapshot (keep=2).
	st2 := testState()
	st2.Seq = 5
	if err := s2.WriteSnapshot(st2); err != nil {
		t.Fatalf("WriteSnapshot 2: %v", err)
	}
	st3 := testState()
	st3.Seq = 5
	if err := s2.WriteSnapshot(st3); err != nil {
		t.Fatalf("WriteSnapshot 3: %v", err)
	}
	segs, snaps, err := s2.scan()
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(snaps) != 2 {
		t.Fatalf("snapshots retained = %d, want 2", len(snaps))
	}
	// Oldest retained snapshot has Seq=5; every segment except the last
	// holds records <= 5 and must be gone.
	if len(segs) != 1 {
		t.Fatalf("segments after prune = %d, want 1 (last always kept)", len(segs))
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRecoverFallsBackOverCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustAppendSync(t, s, delta(0, 0, 7), 0)
	st := testState()
	st.Seq = 1
	if err := s.WriteSnapshot(st); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	mustAppendSync(t, s, delta(1, 1, 8), 1)
	st2 := testState()
	st2.Seq = 2
	st2.Reassigned = 77
	if err := s.WriteSnapshot(st2); err != nil {
		t.Fatalf("WriteSnapshot 2: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Corrupt the NEWEST snapshot; recovery must fall back to the first
	// and replay the tail past it.
	newest := snapPath(dir, 1)
	buf, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(newest, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	rec, err := s2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.Snapshot == nil || rec.Snapshot.Seq != 1 {
		t.Fatalf("fallback snapshot = %+v", rec.Snapshot)
	}
	if rec.SnapshotsSkipped != 1 {
		t.Fatalf("SnapshotsSkipped = %d, want 1", rec.SnapshotsSkipped)
	}
	if len(rec.Tail) != 1 || rec.Tail[0].Seq != 2 {
		t.Fatalf("tail = %+v, want seq 2", rec.Tail)
	}
}

func TestAtomicWriteLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	st := testState()
	st.Seq = 0
	if err := s.WriteSnapshot(st); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// TestHistogramQuantile pins the fsync histogram's reading: a p50 in the
// bulk's bucket and a p100 that does not hide the outlier.
func TestHistogramQuantile(t *testing.T) {
	var m Metrics
	h := &m.FsyncSeconds
	if _, ok := h.Quantile(0.5); ok {
		t.Fatalf("empty histogram reported a quantile")
	}
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(time.Second) // one outlier
	if h.Count() != 101 {
		t.Fatalf("Count = %d", h.Count())
	}
	p50, ok := h.Quantile(0.5)
	if !ok || p50 > 4*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms bucket", p50)
	}
	p100, _ := h.Quantile(1)
	if p100 < 500*time.Millisecond {
		t.Fatalf("p100 = %v, want >= outlier bucket", p100)
	}
}

func TestMetricsAccounting(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	mustAppendSync(t, s, delta(0, 0, 7), 0)
	mustAppendSync(t, s, delta(1, 1, 7), 1)
	m := s.Metrics()
	if m.WALAppends != 2 || m.WALFsyncs != 2 || m.WALSeq != 3 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.WALLagRecords != 2 {
		t.Fatalf("WALLagRecords = %d, want 2 (no snapshot yet)", m.WALLagRecords)
	}
	if m.FsyncSeconds.Count() != 2 {
		t.Fatalf("fsync histogram count = %d", m.FsyncSeconds.Count())
	}
	st := testState()
	st.Seq = 2
	if err := s.WriteSnapshot(st); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	m = s.Metrics()
	if m.WALLagRecords != 0 {
		t.Fatalf("WALLagRecords after snapshot = %d, want 0", m.WALLagRecords)
	}
	if m.Snapshots != 1 || m.SnapshotBytes == 0 {
		t.Fatalf("snapshot metrics = %+v", m)
	}
}

// TestMetricsConcurrentWithWriter reads Metrics on a second goroutine
// while the writer appends, syncs and snapshots — the daemon's /metrics
// handler against its serve loop. Under -race any field Metrics reads
// without synchronization fails it.
func TestMetricsConcurrentWithWriter(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last Metrics
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := s.Metrics()
			if m.WALSeq < last.WALSeq || m.WALAppends < last.WALAppends || m.Snapshots < last.Snapshots {
				t.Errorf("metrics went backwards: %+v after %+v", m, last)
				return
			}
			last = m
		}
	}()
	const appends, every = 60, 20
	for i := 0; i < appends; i++ {
		if i%3 == 0 {
			mustAppendSync(t, s, delta(float64(i), i%5, 9), float64(i))
		} else if _, err := s.Append(delta(float64(i), i%5, 9), float64(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if i%every == every-1 {
			if err := s.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			st := testState()
			st.Seq = s.NextSeq() - 1
			if err := s.WriteSnapshot(st); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}
		}
	}
	close(stop)
	<-done
	m := s.Metrics()
	if m.WALAppends != appends || m.WALSeq != appends+1 || m.Snapshots != appends/every || m.WALLagRecords != 0 {
		t.Fatalf("final metrics = %+v", m)
	}
}

// snapshotV1Path holds a format-1 image of testState(), written by the
// last build that wrote format 1. Format 1 also carried each device's
// seen flag and best gateway and the tracker's best gateway.
const snapshotV1Path = "testdata/snapshot-v1.efss"

func readSnapshotV1(t testing.TB) []byte {
	t.Helper()
	img, err := os.ReadFile(snapshotV1Path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestSnapshotDecodesFormat1 pins that a snapshot written before format 2
// still restores: it decodes to testState() without the dropped fields.
func TestSnapshotDecodesFormat1(t *testing.T) {
	img := readSnapshotV1(t)
	if v := binary.LittleEndian.Uint32(img[4:8]); v != 1 {
		t.Fatalf("fixture is format %d, want 1", v)
	}
	got, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatalf("DecodeSnapshot(format 1): %v", err)
	}
	want, err := DecodeSnapshot(EncodeSnapshot(testState()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("format-1 decode:\n got %+v\nwant %+v", got, want)
	}
	if got.Digest() != testState().Digest() {
		t.Fatal("format-1 decode digest differs from testState()")
	}

	// Device 5 has LastFCnt 0 and kept its entry only through its seen
	// flag. With the flag cleared it held no replay state, so the decoder
	// drops it. Its flag follows the envelope (32 bytes), the shard count
	// (4), shard 0's counters (32), its device count (4), device 1's
	// 18-byte entry and device 5's address and counter (8).
	payload := img[snapHeaderLen : len(img)-snapTrailerLen]
	const seenOff = 32 + 4 + 32 + 4 + 18 + 8
	if payload[seenOff] != 1 {
		t.Fatalf("payload[%d] = %d, want device 5's seen flag", seenOff, payload[seenOff])
	}
	payload[seenOff] = 0
	binary.LittleEndian.PutUint32(img[len(img)-snapTrailerLen:], crc32.ChecksumIEEE(payload))
	got, err = DecodeSnapshot(img)
	if err != nil {
		t.Fatalf("DecodeSnapshot(unseen device): %v", err)
	}
	if devs := got.Pool.Shards[0].Devices; len(devs) != 1 || devs[0].DevAddr != 1 {
		t.Fatalf("devices = %+v, want only device 1", devs)
	}
}

// TestRecoverFormat1SnapshotWithWAL restarts from a directory an older
// build left: a format-1 snapshot plus a WAL segment past it.
func TestRecoverFormat1SnapshotWithWAL(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(snapPath(dir, 3), readSnapshotV1(t), 0o644); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(delta(700, 4, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(dir, 42), encodeWALRecord(42, payload), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	rec, err := s.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.Snapshot == nil || rec.Snapshot.Seq != 41 || rec.Snapshot.Digest() != testState().Digest() {
		t.Fatalf("recovered snapshot = %+v", rec.Snapshot)
	}
	if len(rec.Tail) != 1 || rec.Tail[0].Seq != 42 || rec.Tail[0].Delta.Changes[0].Device != 4 {
		t.Fatalf("tail = %+v, want seq 42 moving device 4", rec.Tail)
	}
	// A new snapshot goes out as format 2.
	if err := s.WriteSnapshot(rec.Snapshot); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(snapPath(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(img[4:8]); v != snapVersion {
		t.Fatalf("new snapshot is format %d, want %d", v, snapVersion)
	}
}

// TestAppendRefusesUnencodableDelta pins that a delta JSON cannot encode
// never reaches the log: Append fails before it opens a segment, the
// sequence does not move, and the records around it recover.
func TestAppendRefusesUnencodableDelta(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	bad := delta(math.NaN(), 1, 8)
	if _, err := s.Append(bad, 0); err == nil {
		t.Fatal("Append accepted a NaN delta")
	}
	if segs, _, err := s.scan(); err != nil || len(segs) != 0 {
		t.Fatalf("refused append left segments %v (%v)", segs, err)
	}
	mustAppendSync(t, s, delta(1, 0, 7), 1)
	if _, err := s.AppendSync(bad, 2); err == nil {
		t.Fatal("AppendSync accepted a NaN delta")
	}
	if s.NextSeq() != 2 {
		t.Fatalf("NextSeq after refused append = %d, want 2", s.NextSeq())
	}
	if seq := mustAppendSync(t, s, delta(3, 2, 9), 3); seq != 2 {
		t.Fatalf("seq after refused append = %d, want 2", seq)
	}
	if m := s.Metrics(); m.WALAppends != 2 {
		t.Fatalf("WALAppends = %d, want 2", m.WALAppends)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := mustOpen(t, dir, Options{}).Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rec.Tail) != 2 || rec.Tail[0].Delta.Changes[0].Device != 0 || rec.Tail[1].Delta.Changes[0].Device != 2 || rec.DiscardedBytes != 0 {
		t.Fatalf("recovered %+v, want the two good records and nothing discarded", rec)
	}
}

// TestRecoverCountsUnparseableRecord pins Recover's accounting for a
// record whose CRC holds but whose JSON does not parse: Open keeps it,
// Recover stops at it, and the bytes it drops are reported.
func TestRecoverCountsUnparseableRecord(t *testing.T) {
	dir := t.TempDir()
	good, err := json.Marshal(delta(1, 0, 7))
	if err != nil {
		t.Fatal(err)
	}
	rec1 := encodeWALRecord(1, good)
	rec2 := encodeWALRecord(2, []byte(`{"version":1,"atS":NaN}`))
	rec3 := encodeWALRecord(3, good)
	seg := append(append(append([]byte(nil), rec1...), rec2...), rec3...)
	if err := os.WriteFile(segPath(dir, 1), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	rec, err := s.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	want := uint64(len(rec2) + len(rec3))
	if len(rec.Tail) != 1 || rec.DiscardedBytes != want {
		t.Fatalf("tail = %d records, discarded %d bytes; want 1 record, %d bytes", len(rec.Tail), rec.DiscardedBytes, want)
	}
	if got := s.Metrics().RecoveryDiscardedBytes; got != want {
		t.Fatalf("RecoveryDiscardedBytes = %d, want %d", got, want)
	}
}
