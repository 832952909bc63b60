package ingest

import (
	"bytes"
	"testing"

	"eflora/internal/alloc"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/scenario"
)

func reallocFixture(t *testing.T, n int, mutate func(a *model.Allocation)) (*alloc.Incremental, *scenario.File) {
	t.Helper()
	net, p, a := replayFixture(t, n)
	if mutate != nil {
		mutate(&a)
	}
	inc, err := alloc.NewIncremental(net, p, a, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return inc, scenario.FromNetwork(net, &a, "realloc test")
}

func TestReallocatorStepReassignsDrifting(t *testing.T) {
	// Device 5 sits on a deliberately wasteful assignment (SF12 despite a
	// short link) so the model-side greedy has an improvement to find
	// once the observed statistics flag it.
	inc, file := reallocFixture(t, 24, func(a *model.Allocation) {
		a.SF[5] = lora.SF12
	})
	tracker := NewTracker(0)
	r := NewReallocator(inc, tracker, ReallocConfig{SNRMarginDB: 1, MinPRR: 0.7, MinFrames: 4})

	// Healthy device: plenty of SNR headroom, perfect PRR.
	for f := uint32(1); f <= 6; f++ {
		tracker.Observe(delivery(AddrForIndex(0), f, 10, 0))
	}
	// Drifting device: rolling SNR far below what any SF tolerates and a
	// lossy counter stream.
	for f := uint32(1); f <= 12; f += 3 {
		tracker.Observe(delivery(AddrForIndex(5), f, lora.SNRThresholdDB(lora.SF12)-6, 1))
	}

	delta, err := r.Step(123)
	if err != nil {
		t.Fatal(err)
	}
	if delta == nil {
		t.Fatal("drifting device produced no delta")
	}
	if delta.AtS != 123 {
		t.Errorf("delta AtS = %v", delta.AtS)
	}
	for _, c := range delta.Changes {
		if c.Device == 0 {
			t.Error("healthy device reassigned")
		}
	}
	found := false
	for _, c := range delta.Changes {
		if c.Device == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("device 5 not in delta: %+v", delta.Changes)
	}
	if r.Reassigned() != len(delta.Changes) {
		t.Errorf("Reassigned = %d, changes = %d", r.Reassigned(), len(delta.Changes))
	}
	// The drifting device's history is forgotten (hysteresis).
	if _, ok := tracker.Get(AddrForIndex(5)); ok {
		t.Error("drifting device stats not reset after reassign")
	}
	// The delta round-trips through the JSONL stream and applies to the
	// scenario file.
	var buf bytes.Buffer
	if err := scenario.AppendDelta(&buf, delta); err != nil {
		t.Fatal(err)
	}
	deltas, err := scenario.ReadDeltas(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 {
		t.Fatalf("deltas = %d", len(deltas))
	}
	if err := file.ApplyDelta(&deltas[0]); err != nil {
		t.Fatal(err)
	}
	// The applied file matches the reallocator's live allocation.
	live := r.Allocation()
	for _, c := range delta.Changes {
		if file.Allocation.SF[c.Device] != int(live.SF[c.Device]) {
			t.Errorf("device %d: file SF %d != live %d", c.Device, file.Allocation.SF[c.Device], live.SF[c.Device])
		}
	}
}

// TestReallocatorStepTwoDriftingDevices pins the Changes of a step that
// moves two devices: in ascending device order, each carrying the
// assignment a reference Incremental reaches by making the same two moves.
func TestReallocatorStepTwoDriftingDevices(t *testing.T) {
	wasteful := func(a *model.Allocation) { a.SF[5], a.SF[9] = lora.SF12, lora.SF12 }
	inc, _ := reallocFixture(t, 24, wasteful)
	ref, _ := reallocFixture(t, 24, wasteful)
	tracker := NewTracker(0)
	r := NewReallocator(inc, tracker, ReallocConfig{SNRMarginDB: 1, MinPRR: 0.7, MinFrames: 4})
	for _, i := range []int{9, 5} {
		for f := uint32(1); f <= 12; f += 3 {
			tracker.Observe(delivery(AddrForIndex(i), f, lora.SNRThresholdDB(lora.SF12)-6, 1))
		}
	}
	delta, err := r.Step(7)
	if err != nil {
		t.Fatal(err)
	}
	if delta == nil || len(delta.Changes) != 2 || len(delta.Resets) != 0 {
		t.Fatalf("delta = %+v, want two changes", delta)
	}
	for k, i := range []int{5, 9} {
		if moved, err := ref.ReassignDevice(i); err != nil || !moved {
			t.Fatalf("reference move of device %d: moved=%v err=%v", i, moved, err)
		}
		want := ref.Allocation()
		got := delta.Changes[k]
		if got.Device != i || got.SF != int(want.SF[i]) || got.TPdBm != want.TPdBm[i] || got.Channel != want.Channel[i] {
			t.Errorf("change %d = %+v, want device %d at (SF%d, %v dBm, ch %d)",
				k, got, i, want.SF[i], want.TPdBm[i], want.Channel[i])
		}
	}
}

func TestReallocatorStepNoDriftNoDelta(t *testing.T) {
	inc, _ := reallocFixture(t, 16, nil)
	tracker := NewTracker(0)
	r := NewReallocator(inc, tracker, ReallocConfig{SNRMarginDB: 1, MinPRR: 0.7, MinFrames: 4})
	for f := uint32(1); f <= 8; f++ {
		tracker.Observe(delivery(AddrForIndex(2), f, 15, 0))
	}
	// Too few frames to trust: must not trigger either.
	tracker.Observe(delivery(AddrForIndex(3), 1, -40, 0))
	delta, err := r.Step(1)
	if err != nil {
		t.Fatal(err)
	}
	if delta != nil {
		t.Errorf("unexpected delta: %+v", delta)
	}
	if r.Reassigned() != 0 {
		t.Errorf("Reassigned = %d, want 0", r.Reassigned())
	}
}

// TestReallocatorMinPRRZeroDisablesFloor pins that the thresholds are
// taken as given: MinPRR 0 switches the PRR floor off, so a device with
// healthy SNR and PRR 0.5 stays unflagged, while the 0.7 floor flags it.
func TestReallocatorMinPRRZeroDisablesFloor(t *testing.T) {
	for _, tc := range []struct {
		minPRR  float64
		flagged bool
	}{{0, false}, {0.7, true}} {
		inc, _ := reallocFixture(t, 16, nil)
		tracker := NewTracker(0)
		r := NewReallocator(inc, tracker, ReallocConfig{SNRMarginDB: 1, MinPRR: tc.minPRR, MinFrames: 4})
		// Four deliveries out of FCnts 1..8: PRR 0.5 at 15 dB SNR.
		for _, f := range []uint32{1, 2, 5, 8} {
			tracker.Observe(delivery(AddrForIndex(2), f, 15, 0))
		}
		if s, _ := tracker.Get(AddrForIndex(2)); s.PRR() != 0.5 {
			t.Fatalf("fixture PRR = %v, want 0.5", s.PRR())
		}
		delta, err := r.Step(1)
		if err != nil {
			t.Fatal(err)
		}
		if flagged := delta != nil; flagged != tc.flagged {
			t.Errorf("MinPRR %v: flagged = %v, want %v (delta %+v)", tc.minPRR, flagged, tc.flagged, delta)
		}
	}
}

func TestAddrIndexRoundTrip(t *testing.T) {
	for i := 0; i < 100; i++ {
		addr := AddrForIndex(i)
		j, ok := IndexForAddr(addr)
		if !ok || j != i {
			t.Fatalf("round trip %d -> %d (%v)", i, j, ok)
		}
	}
	if _, ok := IndexForAddr(0); ok {
		t.Error("address 0 resolved")
	}
}
