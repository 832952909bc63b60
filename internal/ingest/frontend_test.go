package ingest

import (
	"testing"

	"eflora/internal/lora"
)

// feRXPK builds a strong EU868 channel-0 SF7 frame.
func feRXPK(freqMHz, rssiDBm float64, datr string) RXPK {
	return RXPK{Freq: freqMHz, Datr: datr, Codr: "4/7", RSSI: rssiDBm, Size: 20, Stat: 1, Modu: "LORA"}
}

func TestFrontendCountsOverlapCollisions(t *testing.T) {
	f := NewFrontend(FrontendConfig{Plan: lora.EU868()})
	// Two equal-power frames: neither has the capture advantage, so both die.
	rx := feRXPK(868.1, -60, "SF7BW125")
	if locked, ok := f.Observe(0, &rx, 0); !ok || !locked {
		t.Fatalf("first frame: locked=%v ok=%v", locked, ok)
	}
	// Same channel, same SF, overlapping in time (SF7/20B is ~tens of ms).
	if locked, ok := f.Observe(0, &rx, 0.01); !ok || !locked {
		t.Fatalf("second frame: locked=%v ok=%v", locked, ok)
	}
	f.Advance(10) // both frames long over
	c := f.Counters()
	if c.CollisionLosses != 2 {
		t.Errorf("collision losses = %d, want 2 (equal power, no capture)", c.CollisionLosses)
	}

	// A different gateway is an independent receiver.
	rx2 := feRXPK(868.3, -60, "SF7BW125")
	f.Observe(1, &rx2, 20)
	f.Advance(30)
	if got := f.Counters().CollisionLosses; got != 2 {
		t.Errorf("clean frame at another gateway changed collisions: %d", got)
	}
}

func TestFrontendSensitivityAndCapacity(t *testing.T) {
	f := NewFrontend(FrontendConfig{Plan: lora.EU868(), Capacity: 2})
	weak := feRXPK(868.1, -150, "SF7BW125") // below SF7 sensitivity
	if locked, _ := f.Observe(0, &weak, 0); locked {
		t.Fatal("frame below sensitivity locked a demodulator")
	}
	// Fill both demodulators on distinct channels, then overflow.
	ch0 := feRXPK(868.1, -60, "SF12BW125") // long air time keeps them locked
	ch1 := feRXPK(868.3, -60, "SF12BW125")
	ch2 := feRXPK(868.5, -60, "SF12BW125")
	f.Observe(0, &ch0, 1)
	f.Observe(0, &ch1, 1.01)
	if locked, _ := f.Observe(0, &ch2, 1.02); locked {
		t.Fatal("third concurrent frame locked one of two demodulators")
	}
	c := f.Counters()
	if c.SensitivityMisses != 1 || c.CapacityDrops != 1 {
		t.Errorf("counters = %+v, want 1 sensitivity miss and 1 capacity drop", c)
	}
}

func TestFrontendUnknownChannelAndBadDatr(t *testing.T) {
	f := NewFrontend(FrontendConfig{Plan: lora.EU868()})
	off := feRXPK(915.0, -60, "SF7BW125") // not an EU868 uplink frequency
	if _, ok := f.Observe(0, &off, 0); !ok {
		t.Fatal("off-plan frequency should still be observed")
	}
	bad := feRXPK(868.1, -60, "garbage")
	if _, ok := f.Observe(0, &bad, 1); ok {
		t.Fatal("unparsable datr should be rejected")
	}
	c := f.Counters()
	if c.UnknownChannel != 1 || c.BadDatr != 1 {
		t.Errorf("counters = %+v, want 1 unknown channel and 1 bad datr", c)
	}
}

// TestChannelTableResolvesPlan pins the flat channel table against the
// plan it was built from: every uplink channel resolves to its own index
// and off-plan frequencies miss.
func TestChannelTableResolvesPlan(t *testing.T) {
	plan := lora.EU868()
	f := NewFrontend(FrontendConfig{Plan: plan})
	for _, ch := range plan.Uplink {
		idx, ok := f.channel(ch.CenterHz / 1e6)
		if !ok || idx != ch.Index {
			t.Errorf("channel(%g MHz) = %d, %v; want %d", ch.CenterHz/1e6, idx, ok, ch.Index)
		}
	}
	if idx, ok := f.channel(915.0); ok {
		t.Errorf("off-plan 915.0 MHz resolved to channel %d", idx)
	}
}

// TestObserveAllocBudget enforces the live-path half of the zero-alloc
// claim: once the gateway table, engine arenas, window and Done buffer are
// warm, Observe — datarate parse, channel lookup, clock clamp, one-entry
// Batch — allocates nothing per frame.
func TestObserveAllocBudget(t *testing.T) {
	f := NewFrontend(FrontendConfig{Plan: lora.EU868()})
	rx := feRXPK(868.1, -60, "SF7BW125")
	at := 0.0
	for i := 0; i < 32; i++ { // warm the arenas to high-water
		at++
		f.Observe(0, &rx, at)
	}
	avg := testing.AllocsPerRun(200, func() {
		at++ // spaced far past time-on-air: the active list stays bounded
		if _, ok := f.Observe(0, &rx, at); !ok {
			t.Fatal("warm frame rejected")
		}
	})
	if avg != 0 {
		t.Errorf("warm Observe allocates %v per frame, want 0", avg)
	}
}

func BenchmarkFrontendObserve(b *testing.B) {
	f := NewFrontend(FrontendConfig{Plan: lora.EU868()})
	rx := feRXPK(868.1, -60, "SF7BW125")
	at := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at++
		f.Observe(0, &rx, at)
	}
}

func TestFrontendClampsClockRegressions(t *testing.T) {
	f := NewFrontend(FrontendConfig{Plan: lora.EU868()})
	rx := feRXPK(868.1, -60, "SF7BW125")
	f.Observe(0, &rx, 5)
	// A reordered frame with an earlier arrival time must not violate the
	// engine's nondecreasing-time contract (it is clamped to 5).
	if locked, ok := f.Observe(0, &rx, 4); !ok || !locked {
		t.Fatalf("reordered frame: locked=%v ok=%v", locked, ok)
	}
	f.Advance(10)
	if got := f.Counters().CollisionLosses; got != 2 {
		t.Errorf("clamped overlap should collide: losses = %d, want 2", got)
	}
}
