package engine

import (
	"math"
	"testing"

	"eflora/internal/lora"
)

// testConfig builds a receiver whose thresholds are easy to reason about:
// real per-SF tables, 1e-9 mW noise, capacity 2, 6 dB capture.
func testConfig(capture, halfDuplex bool) Config {
	return Config{
		Capture:    capture,
		CaptureLin: lora.DBToLinear(6),
		Capacity:   2,
		HalfDuplex: halfDuplex,
		NoiseMW:    1e-9,
		Thresholds: NewThresholds(),
	}
}

// strongMW is comfortably above SF7 sensitivity and the SNR cutoff for
// the 1e-9 mW noise floor.
const strongMW = 1e-6

// arrive runs one transmission through Batch as a one-entry window cut at
// its own start, the live frontend's call, so each rule test below runs
// on the production kernel. It returns the outcome Batch settled at once
// (OutcomeNoSignal or OutcomeCapacity), or locked when the arrival holds
// a demodulator and its Done is still to come. The tests read
// completions through FinishUpTo, so the call must complete no earlier
// reception.
func arrive(t *testing.T, g *Gateway, tok, dev int, sf lora.SF, ch int, startS, endS, rxMW float64) (o Outcome, locked bool) {
	t.Helper()
	w := &Window{Tok0: tok}
	w.Append(dev, sf, ch, startS, endS, 0)
	done := g.Batch(w, []float64{rxMW}, startS, nil)
	if len(done) == 0 {
		return 0, true
	}
	if len(done) > 1 || done[0].Tok != tok {
		t.Fatalf("arrival %d completed earlier receptions: %+v", tok, done)
	}
	return done[0].Outcome, false
}

func TestArriveBelowSensitivityIsInvisible(t *testing.T) {
	var g Gateway
	g.Reset(testConfig(false, false))
	weak := lora.DBmToMilliwatts(lora.SensitivityDBm(lora.SF7)) / 2
	if o, locked := arrive(t, &g, 0, 0, lora.SF7, 0, 0, 1, weak); locked || o != OutcomeNoSignal {
		t.Fatalf("outcome = %v, locked = %v; want no-signal", o, locked)
	}
	if len(g.active) != 0 || g.Counters.SensitivityMisses != 1 {
		t.Fatalf("active=%d misses=%d", len(g.active), g.Counters.SensitivityMisses)
	}
	// An invisible packet collides with nobody.
	if o, locked := arrive(t, &g, 1, 1, lora.SF7, 0, 0.5, 1.5, strongMW); !locked {
		t.Fatalf("outcome = %v, want locked", o)
	}
	done := g.FinishUpTo(math.Inf(1), nil)
	if len(done) != 1 || done[0].Outcome != OutcomeDelivered {
		t.Fatalf("done = %+v, want one delivery", done)
	}
}

func TestOverlapWithoutCaptureDestroysBoth(t *testing.T) {
	var g Gateway
	g.Reset(testConfig(false, false))
	arrive(t, &g, 0, 0, lora.SF7, 0, 0, 1, strongMW)
	arrive(t, &g, 1, 1, lora.SF7, 0, 0.5, 1.5, 100*strongMW)
	done := g.FinishUpTo(math.Inf(1), nil)
	if len(done) != 2 {
		t.Fatalf("completions = %d, want 2", len(done))
	}
	for _, d := range done {
		if d.Outcome != OutcomeCollided {
			t.Errorf("tok %d outcome = %v, want collided", d.Tok, d.Outcome)
		}
	}
	if g.Counters.CollisionLosses != 2 {
		t.Errorf("collision losses = %d, want 2", g.Counters.CollisionLosses)
	}
}

func TestCaptureRescuesTheStrongerPacket(t *testing.T) {
	var g Gateway
	g.Reset(testConfig(true, false))
	arrive(t, &g, 0, 0, lora.SF7, 0, 0, 1, strongMW)
	arrive(t, &g, 1, 1, lora.SF7, 0, 0.5, 1.5, 100*strongMW) // +20 dB: captures
	outcomes := map[int]Outcome{}
	for _, d := range g.FinishUpTo(math.Inf(1), nil) {
		outcomes[d.Tok] = d.Outcome
	}
	if outcomes[0] != OutcomeCollided || outcomes[1] != OutcomeDelivered {
		t.Fatalf("outcomes = %v, want tok0 collided, tok1 delivered", outcomes)
	}
}

func TestDifferentSFOrChannelDoNotCollide(t *testing.T) {
	var g Gateway
	g.Reset(testConfig(false, false))
	arrive(t, &g, 0, 0, lora.SF7, 0, 0, 1, strongMW)
	arrive(t, &g, 1, 1, lora.SF8, 0, 0.1, 1.1, strongMW) // other SF
	arrive(t, &g, 2, 2, lora.SF7, 1, 0.2, 1.2, strongMW) // other channel — capacity full now
	for _, d := range g.FinishUpTo(math.Inf(1), nil) {
		if d.Outcome != OutcomeDelivered {
			t.Errorf("tok %d outcome = %v, want delivered", d.Tok, d.Outcome)
		}
	}
}

func TestCapacityRejectsButStillCorrupts(t *testing.T) {
	var g Gateway
	g.Reset(testConfig(false, false))
	arrive(t, &g, 0, 0, lora.SF9, 1, 0, 1, strongMW)
	arrive(t, &g, 1, 1, lora.SF8, 0, 0, 1, strongMW)
	// Third concurrent arrival: no demodulator left, but its RF energy
	// still destroys the same-SF same-channel reception it overlaps.
	if o, locked := arrive(t, &g, 2, 2, lora.SF8, 0, 0.5, 1.5, strongMW); locked || o != OutcomeCapacity {
		t.Fatalf("outcome = %v, locked = %v; want capacity", o, locked)
	}
	if g.Counters.CapacityDrops != 1 {
		t.Fatalf("capacity drops = %d", g.Counters.CapacityDrops)
	}
	outcomes := map[int]Outcome{}
	for _, d := range g.FinishUpTo(math.Inf(1), nil) {
		outcomes[d.Tok] = d.Outcome
	}
	if outcomes[0] != OutcomeDelivered || outcomes[1] != OutcomeCollided {
		t.Fatalf("outcomes = %v, want tok0 delivered, tok1 collided", outcomes)
	}
}

func TestHalfDuplexBlocksDuringAckWindow(t *testing.T) {
	var g Gateway
	g.Reset(testConfig(false, true))
	g.AddAckWindow(1, 2)
	if o, locked := arrive(t, &g, 0, 0, lora.SF7, 0, 1.5, 2.5, strongMW); locked || o != OutcomeCapacity {
		t.Fatalf("outcome = %v, locked = %v; want blocked", o, locked)
	}
	if g.Counters.AckBlocked != 1 || g.Counters.CapacityDrops != 0 {
		t.Fatalf("ack blocked = %d, capacity drops = %d; want 1 and 0", g.Counters.AckBlocked, g.Counters.CapacityDrops)
	}
	// After the window closes it is pruned and arrivals lock again.
	if o, locked := arrive(t, &g, 1, 1, lora.SF7, 0, 3, 4, strongMW); !locked {
		t.Fatalf("outcome = %v, want locked", o)
	}
	// Without HalfDuplex the same window is ignored.
	g.Reset(testConfig(false, false))
	g.AddAckWindow(1, 2)
	if o, locked := arrive(t, &g, 2, 2, lora.SF7, 0, 1.5, 2.5, strongMW); !locked {
		t.Fatalf("half-duplex off: outcome = %v, want locked", o)
	}
}

func TestFinishUpToCompletesInOrderAndKeepsInFlight(t *testing.T) {
	var g Gateway
	cfg := testConfig(false, false)
	cfg.Capacity = 8
	g.Reset(cfg)
	arrive(t, &g, 0, 0, lora.SF7, 0, 0, 1, strongMW)
	arrive(t, &g, 1, 1, lora.SF7, 1, 0.1, 2, strongMW)
	arrive(t, &g, 2, 2, lora.SF7, 2, 0.2, 0.8, strongMW)
	done := g.FinishUpTo(1, nil)
	if len(done) != 2 || done[0].Tok != 0 || done[1].Tok != 2 {
		t.Fatalf("done = %+v, want toks 0,2 in arrival order", done)
	}
	if len(g.active) != 1 {
		t.Fatalf("active = %d, want 1 in flight", len(g.active))
	}
	done = g.FinishUpTo(math.Inf(1), done[:0])
	if len(done) != 1 || done[0].Tok != 1 {
		t.Fatalf("final done = %+v, want tok 1", done)
	}
}

func TestSNRDecidesFadedVersusDelivered(t *testing.T) {
	var g Gateway
	g.Reset(testConfig(false, false))
	// SF12 sensitivity is well below its SNR threshold over this noise
	// floor: pick a power that clears sensitivity but not the SNR cutoff.
	sens := lora.DBmToMilliwatts(lora.SensitivityDBm(lora.SF12))
	snrCut := 1e-9 * lora.DBToLinear(lora.SNRThresholdDB(lora.SF12))
	if sens >= snrCut {
		t.Skip("threshold tables changed; faded band empty")
	}
	mid := math.Sqrt(sens * snrCut)
	arrive(t, &g, 0, 0, lora.SF12, 0, 0, 1, mid)
	done := g.FinishUpTo(math.Inf(1), nil)
	if len(done) != 1 || done[0].Outcome != OutcomeFaded {
		t.Fatalf("done = %+v, want faded", done)
	}
}

func TestResetClearsStateAndIsAllocationFreeWarm(t *testing.T) {
	var g Gateway
	cfg := testConfig(false, true)
	g.Reset(cfg)
	arrive(t, &g, 0, 0, lora.SF7, 0, 0, 1, strongMW)
	g.AddAckWindow(1, 2)
	g.Reset(cfg)
	if len(g.active) != 0 || len(g.ackWins) != 0 || g.Counters != (Counters{}) {
		t.Fatalf("Reset left state: active=%d ackWins=%d counters=%+v", len(g.active), len(g.ackWins), g.Counters)
	}
	// Two overlapping arrivals, one Batch call each cut at its start,
	// then a flush: the live frontend's event round.
	w := &Window{}
	w.Append(0, lora.SF7, 0, 0, 1, 0)
	w.Append(1, lora.SF7, 0, 0.5, 1.5, 0)
	first, second := span(w, 0, 1), span(w, 1, 2)
	rx := []float64{strongMW, strongMW}
	done := make([]Done, 0, 8)
	avg := testing.AllocsPerRun(100, func() {
		g.Reset(cfg)
		done = g.Batch(first, rx[:1], 0, done[:0])
		done = g.Batch(second, rx[1:], 0.5, done)
		done = g.FinishUpTo(math.Inf(1), done)
	})
	if avg != 0 {
		t.Errorf("warm engine allocates %v per event round, want 0", avg)
	}
}

func TestOutcomeStringAndPinnedValues(t *testing.T) {
	// The numeric values are baked into golden digests.
	if OutcomeNoSignal != 0 || OutcomeCapacity != 1 || OutcomeFaded != 2 ||
		OutcomeCollided != 3 || OutcomeDelivered != 4 {
		t.Fatal("Outcome values renumbered; golden digests depend on them")
	}
	want := map[Outcome]string{
		OutcomeNoSignal:  "no-signal",
		OutcomeCapacity:  "capacity",
		OutcomeFaded:     "faded",
		OutcomeCollided:  "collided",
		OutcomeDelivered: "delivered",
		Outcome(99):      "outcome(99)",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, o.String(), s)
		}
	}
}
