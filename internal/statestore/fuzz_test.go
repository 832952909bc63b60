package statestore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"eflora/internal/scenario"
)

// FuzzSnapshotRoundtrip feeds arbitrary bytes to the snapshot decoder.
// Malformed images may be rejected but must not panic or over-allocate;
// images that decode, in either format, must re-encode to a state with
// the same digest and identical envelope (a decode→encode→decode fixed
// point).
func FuzzSnapshotRoundtrip(f *testing.F) {
	f.Add(EncodeSnapshot(testState()))
	f.Add(EncodeSnapshot(&State{}))
	small := testState()
	small.Pool.Shards = small.Pool.Shards[:1]
	small.Tracker = nil
	f.Add(EncodeSnapshot(small))
	f.Add([]byte("EFSS"))
	f.Add([]byte{})
	// Declared payload length far beyond the buffer.
	f.Add([]byte("EFSS\x01\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	// A format-1 image, which decodes and re-encodes as format 2.
	f.Add(readSnapshotV1(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		img2 := EncodeSnapshot(st)
		st2, err := DecodeSnapshot(img2)
		if err != nil {
			t.Fatalf("re-encode of a decoded snapshot failed to decode: %v", err)
		}
		if st.Digest() != st2.Digest() {
			t.Fatalf("digest changed across decode→encode→decode")
		}
		if st.Epoch != st2.Epoch || st.Seq != st2.Seq || st.UplinkCount != st2.UplinkCount || st.TakenAtS != st2.TakenAtS {
			// NaN TakenAtS compares unequal to itself but must keep its bits.
			if !(st.TakenAtS != st.TakenAtS && st2.TakenAtS != st2.TakenAtS) {
				t.Fatalf("envelope changed across roundtrip")
			}
		}
	})
}

// FuzzWALSegment writes arbitrary bytes as the one segment of a state
// directory and runs the full Open→Recover path over it: truncated and
// corrupted tails must be repaired or rejected, never panic, and whatever
// records survive must be strictly sequenced from the segment's first
// sequence number.
func FuzzWALSegment(f *testing.F) {
	valid := func(deltas ...*scenario.Delta) []byte {
		var buf []byte
		seq := uint64(1)
		for _, d := range deltas {
			payload, err := json.Marshal(d)
			if err != nil {
				f.Fatal(err)
			}
			buf = append(buf, encodeWALRecord(seq, payload)...)
			seq++
		}
		return buf
	}
	d1 := &scenario.Delta{Version: scenario.CurrentVersion, AtS: 1, Changes: []scenario.DeltaChange{{Device: 0, SF: 7, TPdBm: 2}}}
	d2 := &scenario.Delta{Version: scenario.CurrentVersion, AtS: 2, Resets: []int{3}}
	whole := valid(d1, d2)
	f.Add(whole)
	f.Add(whole[:len(whole)-5])              // torn tail
	f.Add(append(whole, 'j', 'u', 'n', 'k')) // trailing garbage
	f.Add([]byte{})
	f.Add([]byte("w1 0000000000000001 00000000 {}\n"))
	f.Add([]byte("w1 0000000000000002 00000000 {}\n")) // wrong first seq

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			return
		}
		rec, err := s.Recover()
		if err != nil {
			return
		}
		wantSeq := uint64(1)
		for _, r := range rec.Tail {
			if r.Seq != wantSeq {
				t.Fatalf("recovered seq %d, want %d", r.Seq, wantSeq)
			}
			wantSeq++
		}
		// The repaired directory must accept new appends and recover them.
		seq, err := s.AppendSync(d1, 99)
		if err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if seq != wantSeq {
			t.Fatalf("post-repair seq = %d, want %d", seq, wantSeq)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen after repair: %v", err)
		}
		rec2, err := s2.Recover()
		if err != nil {
			t.Fatalf("recover after repair+append: %v", err)
		}
		if len(rec2.Tail) != len(rec.Tail)+1 {
			t.Fatalf("recovered %d records, want %d", len(rec2.Tail), len(rec.Tail)+1)
		}
	})
}

// TestFuzzSeedCorpusPresent pins the checked-in seed corpora so the CI
// fuzz-smoke job always starts from real inputs.
func TestFuzzSeedCorpusPresent(t *testing.T) {
	for _, target := range []string{"FuzzSnapshotRoundtrip", "FuzzWALSegment"} {
		dir := filepath.Join("testdata", "fuzz", target)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s seed corpus missing: %v", target, err)
		}
		if len(entries) == 0 {
			t.Fatalf("%s seed corpus empty", target)
		}
	}
}
