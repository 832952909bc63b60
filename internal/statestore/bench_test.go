package statestore

import (
	"testing"

	"eflora/internal/scenario"
)

// benchDelta is a realistic control-loop delta: a couple of moves plus a
// reset, ~150 bytes of JSON.
func benchDelta() *scenario.Delta {
	return &scenario.Delta{
		Version: scenario.CurrentVersion,
		AtS:     1234.5,
		Comment: "online realloc: 3 drifting device(s)",
		Changes: []scenario.DeltaChange{
			{Device: 17, SF: 9, TPdBm: 8, Channel: 1},
			{Device: 203, SF: 10, TPdBm: 11, Channel: 2},
		},
		Resets: []int{54},
	}
}

// BenchmarkWALAppend measures the buffered append path: JSON encoding,
// framing and the buffered write, with group-commit fsyncs amortized
// elsewhere. The daemon appends one record per control step that changes
// the allocation, not one per uplink, so this is far from its bottleneck.
func BenchmarkWALAppend(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	d := benchDelta()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(d, float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWALAppendSync measures the fully durable path: append + flush
// + fsync per record. Dominated by the device's fsync latency.
func BenchmarkWALAppendSync(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	d := benchDelta()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AppendSync(d, float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotEncode measures the in-memory snapshot codec on a
// representative multi-shard state.
func BenchmarkSnapshotEncode(b *testing.B) {
	st := testState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(EncodeSnapshot(st)) == 0 {
			b.Fatal("empty image")
		}
	}
}

// BenchmarkRecover measures the full restart path: open the directory,
// load the snapshot, replay a 256-record WAL tail.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	st := testState()
	st.Seq = 0
	if err := s.WriteSnapshot(st); err != nil {
		b.Fatal(err)
	}
	d := benchDelta()
	for i := 0; i < 256; i++ {
		if _, err := s.Append(d, float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		rec, err := s2.Recover()
		if err != nil {
			b.Fatal(err)
		}
		if rec.Snapshot == nil || len(rec.Tail) != 256 {
			b.Fatalf("recovered snapshot=%v tail=%d", rec.Snapshot != nil, len(rec.Tail))
		}
		if err := s2.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
