package engine

import (
	"math"
	"slices"
	"testing"

	"eflora/internal/lora"
	"eflora/internal/rng"
)

// arriveScalar is the event-by-event reference receiver Batch, Sweep
// and per-event Batch are checked against. It applies sensitivity, the
// collision scan, half-duplex blocking and the capacity check to one
// arrival, in that order, over the gateway's active list. It returns
// the outcome the arrival gets at once — OutcomeNoSignal below
// sensitivity, OutcomeCapacity when blocked or out of demodulators — or
// locked when it occupies a demodulator and FinishUpTo judges it later.
// tok identifies the reception in that later Done; startS and endS bound
// its air time; rxMW is its received power at this gateway.
//
// The collision scan runs before the half-duplex and capacity checks: a
// transmission that finds no free demodulator (or a gateway deaf from an
// ACK) is still RF energy on the air and corrupts locked receptions all
// the same — on an SX1301 the lock only selects what gets decoded, not
// what interferes. Collision marks on the arriving transmission itself
// only take effect if it locks.
//
// The caller must present arrivals in nondecreasing start order and run
// FinishUpTo(startS) first so receptions that ended earlier do not
// linger in the overlap scan.
func (g *Gateway) arriveScalar(tok, dev int, sf lora.SF, ch int, startS, endS, rxMW float64) (o Outcome, locked bool) {
	if g.cfg.HalfDuplex {
		// Prune finished ACK windows before any early return: a pruned
		// window (to <= startS) can block no later arrival either.
		g.pruneAckWins(startS)
	}
	if rxMW < g.cfg.Thresholds.SensitivityMW[sf-lora.SF7] {
		g.Counters.SensitivityMisses++
		return OutcomeNoSignal, false
	}
	collided := false
	for j := range g.active {
		o := &g.active[j]
		if o.dev == dev || o.sf != sf || o.ch != ch {
			continue
		}
		if g.cfg.Capture {
			switch {
			case rxMW >= g.cfg.CaptureLin*o.rxMW:
				o.collided = true
			case o.rxMW >= g.cfg.CaptureLin*rxMW:
				collided = true
			default:
				collided = true
				o.collided = true
			}
		} else {
			collided = true
			o.collided = true
		}
	}
	if g.cfg.HalfDuplex {
		for _, w := range g.ackWins {
			if w.from < endS && startS < w.to {
				g.Counters.AckBlocked++
				return OutcomeCapacity, false
			}
		}
	}
	if len(g.active) >= g.cfg.Capacity {
		g.Counters.CapacityDrops++
		return OutcomeCapacity, false
	}
	g.active = append(g.active, reception{
		tok: tok, dev: dev, ch: ch, sf: sf, endS: endS, rxMW: rxMW, collided: collided,
	})
	return 0, true
}

// newGateway returns a gateway reset to cfg with the ACK windows
// registered.
func newGateway(cfg Config, acks [][2]float64) *Gateway {
	g := new(Gateway)
	g.Reset(cfg)
	for _, a := range acks {
		g.AddAckWindow(a[0], a[1])
	}
	return g
}

// runScalar replays one event stream through arriveScalar and
// FinishUpTo, turning the immediate outcomes into Done entries as Batch
// does, and returns every Done plus the counters. With a retire hook it
// registers the hook's window for each delivery FinishUpTo returns,
// before the next arrival.
func runScalar(cfg Config, w *Window, rxMW []float64, cuts []float64, acks [][2]float64, retire Retire) ([]Done, Counters) {
	g := newGateway(cfg, acks)
	var done []Done
	finish := func(t float64) {
		n := len(done)
		done = g.FinishUpTo(t, done)
		for _, d := range done[n:] {
			if retire == nil || d.Outcome != OutcomeDelivered {
				continue
			}
			if from, to, ok := retire(d.Tok); ok {
				g.AddAckWindow(from, to)
			}
		}
	}
	i := 0
	for _, cut := range cuts {
		for ; i < w.Len() && w.StartS[i] < cut; i++ {
			finish(w.StartS[i])
			tok := w.Tok0 + i
			if o, locked := g.arriveScalar(tok, int(w.Dev[i]), w.SF[i], int(w.Ch[i]), w.StartS[i], w.EndS[i], rxMW[i]); !locked {
				done = append(done, Done{Tok: tok, Outcome: o})
			}
		}
		finish(cut)
	}
	return done, g.Counters
}

// span is the sub-window of w's entries lo to hi-1, under their tokens.
func span(w *Window, lo, hi int) *Window {
	return &Window{Tok0: w.Tok0 + lo, Dev: w.Dev[lo:hi], SF: w.SF[lo:hi], Ch: w.Ch[lo:hi],
		StartS: w.StartS[lo:hi], EndS: w.EndS[lo:hi], TpMW: w.TpMW[lo:hi]}
}

// eachWindow splits w at the cuts and calls fn with each sub-window, the
// index of its first entry in w, and its cut.
func eachWindow(w *Window, cuts []float64, fn func(sub *Window, lo int, cut float64)) {
	i := 0
	for _, cut := range cuts {
		lo := i
		for ; i < w.Len() && w.StartS[i] < cut; i++ {
		}
		fn(span(w, lo, i), lo, cut)
	}
}

// runBatch replays the same stream through Batch, splitting the window
// at the same cuts. Batch takes no retire hook.
func runBatch(cfg Config, w *Window, rxMW []float64, cuts []float64, acks [][2]float64, _ Retire) ([]Done, Counters) {
	g := newGateway(cfg, acks)
	var done []Done
	eachWindow(w, cuts, func(sub *Window, lo int, cut float64) {
		done = g.Batch(sub, rxMW[lo:lo+sub.Len()], cut, done)
	})
	return done, g.Counters
}

// runPerEvent replays the same stream the way the live frontend drives
// the engine: one Batch call per arrival, a one-entry window cut at its
// own start, and a FinishUpTo flush at each cut.
func runPerEvent(cfg Config, w *Window, rxMW []float64, cuts []float64, acks [][2]float64, _ Retire) ([]Done, Counters) {
	g := newGateway(cfg, acks)
	var done []Done
	eachWindow(w, cuts, func(sub *Window, lo int, cut float64) {
		for e := range sub.Len() {
			done = g.Batch(span(sub, e, e+1), rxMW[lo+e:lo+e+1], sub.StartS[e], done)
		}
		done = g.FinishUpTo(cut, done)
	})
	return done, g.Counters
}

// runSweep replays the same stream through Sweep, the way the
// simulators drive it: each window's entries below sensitivity are
// dropped from the selection and counted by the driver, and the rest go
// to the kernel under their window tokens, with the retire hook. The
// misses are added back as NoSignal verdicts and sensitivity misses, so
// the result compares directly with the scalar loop's.
func runSweep(cfg Config, w *Window, rxMW []float64, cuts []float64, acks [][2]float64, retire Retire) ([]Done, Counters) {
	g := newGateway(cfg, acks)
	var done []Done
	var sel []int32
	misses := 0
	eachWindow(w, cuts, func(sub *Window, lo int, cut float64) {
		sel = sel[:0]
		for e := range sub.Len() {
			if rxMW[lo+e] >= cfg.Thresholds.SensitivityMW[sub.SF[e]-lora.SF7] {
				sel = append(sel, int32(e))
			} else {
				misses++
				done = append(done, Done{Tok: sub.Tok0 + e, Outcome: OutcomeNoSignal})
			}
		}
		n := len(done)
		done = g.Sweep(sub, sel, rxMW[lo:lo+sub.Len()], cut, done, retire)
		for _, d := range done[n:] {
			if d.Outcome == OutcomeNoSignal {
				panic("Sweep emitted a NoSignal verdict")
			}
		}
	})
	ctr := g.Counters
	ctr.SensitivityMisses += misses
	return done, ctr
}

// ackHook is a half-duplex driver's retire hook over w: it acknowledges
// every delivered reception whose token is not a multiple of 3, with a
// downlink of dur seconds starting delay seconds after the uplink ends.
// The skipped tokens stand for receptions a lower gateway acknowledges.
func ackHook(w *Window, delay, dur float64) Retire {
	return func(tok int) (float64, float64, bool) {
		if tok%3 == 0 {
			return 0, 0, false
		}
		from := w.EndS[tok-w.Tok0] + delay
		return from, from + dur, true
	}
}

// diffStreams runs one stream through the scalar reference and the Sweep
// kernel over the visible entries at the given cuts, both with the
// retire hook, and, when there is no hook, through full-window Batch and
// per-event Batch as well; it fails on any outcome or counter
// divergence, and on a token judged twice.
func diffStreams(t *testing.T, cfg Config, w *Window, rxMW []float64, cuts []float64, acks [][2]float64, retire Retire) {
	t.Helper()
	wantDone, wantCtr := runScalar(cfg, w, rxMW, cuts, acks, retire)
	wantOut := byToken(t, "scalar", wantDone)
	type path struct {
		name string
		run  func(Config, *Window, []float64, []float64, [][2]float64, Retire) ([]Done, Counters)
	}
	paths := []path{{"sweep", runSweep}}
	if retire == nil {
		paths = append(paths, path{"batch", runBatch}, path{"per-event batch", runPerEvent})
	}
	for _, path := range paths {
		gotDone, gotCtr := path.run(cfg, w, rxMW, cuts, acks, retire)
		gotOut := byToken(t, path.name, gotDone)
		if gotCtr != wantCtr {
			t.Errorf("counters diverge: %s %+v, scalar %+v", path.name, gotCtr, wantCtr)
		}
		if len(gotOut) != len(wantOut) {
			t.Errorf("verdict count diverges: %s %d, scalar %d", path.name, len(gotOut), len(wantOut))
		}
		for tok, want := range wantOut {
			got, ok := gotOut[tok]
			if !ok {
				t.Errorf("tok %d: scalar %+v, %s emitted nothing", tok, want, path.name)
				continue
			}
			if got != want {
				t.Errorf("tok %d: %s %+v, scalar %+v", tok, path.name, got, want)
			}
		}
	}
}

// byToken keys one path's verdicts by token, failing on a token judged
// twice.
func byToken(t *testing.T, name string, done []Done) map[int]Done {
	t.Helper()
	out := make(map[int]Done, len(done))
	for _, d := range done {
		if prev, dup := out[d.Tok]; dup {
			t.Errorf("%s judged tok %d twice: %+v, then %+v", name, d.Tok, prev, d)
		}
		out[d.Tok] = d
	}
	return out
}

// randomWindow draws n sorted transmissions over a horizon. Powers span
// the whole interesting range: below sensitivity, the faded band, and
// comfortably decodable, with near-capture ratios in between.
func randomWindow(r *rng.RNG, n, devs, chans int, horizon float64) (*Window, []float64) {
	w := &Window{}
	starts := make([]float64, n)
	for i := range starts {
		starts[i] = r.Float64() * horizon
	}
	// Insertion sort: deterministic and dependency-free for test sizes.
	for i := 1; i < len(starts); i++ {
		for j := i; j > 0 && starts[j] < starts[j-1]; j-- {
			starts[j], starts[j-1] = starts[j-1], starts[j]
		}
	}
	rx := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sf := lora.SF7 + lora.SF(r.Uint64()%6)
		dur := 0.05 + r.Float64()*2
		w.Append(int(r.Uint64()%uint64(devs)), sf, int(r.Uint64()%uint64(chans)),
			starts[i], starts[i]+dur, 1)
		sens := lora.DBmToMilliwatts(lora.SensitivityDBm(sf))
		rx = append(rx, sens*math.Pow(10, r.Float64()*8-1))
	}
	return w, rx
}

// clampStarts pulls each entry that starts within gap of the entry
// before it, and has a higher device number, back to that entry's start,
// keeping its time on air: runs of equal starts like those the live
// frontend's clock clamp produces, still in (start, device) order.
func clampStarts(w *Window, gap float64) {
	for i := 1; i < w.Len(); i++ {
		if d := w.StartS[i] - w.StartS[i-1]; d < gap && w.Dev[i] > w.Dev[i-1] {
			w.StartS[i] -= d
			w.EndS[i] -= d
		}
	}
}

// TestBatchMatchesScalarRandomStreams runs random streams through the
// scalar reference, Sweep, full-window Batch and per-event Batch: capture
// on and off, half-duplex with and without a retire hook, capacity 1 and
// 2, and every fourth stream with runs of equal starts.
func TestBatchMatchesScalarRandomStreams(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 60; trial++ {
		capture := trial%2 == 0
		halfDuplex := trial%3 == 0
		cfg := testConfig(capture, halfDuplex)
		if trial%5 == 0 {
			cfg.Capacity = 1 // saturate constantly
		}
		n := 2 + int(r.Uint64()%40)
		w, rx := randomWindow(r, n, 1+n/3, 2, 10)
		if trial%4 == 1 {
			clampStarts(w, 0.5)
		}
		var acks [][2]float64
		if halfDuplex {
			from := r.Float64() * 10
			acks = append(acks, [2]float64{from, from + r.Float64()*3})
		}
		// Exercise single-call, windowed, and empty-window cut layouts.
		cutSets := [][]float64{
			{math.Inf(1)},
			{2.5, 5, 7.5, math.Inf(1)},
			{1, 1, 4, 4, math.Inf(1)},
		}
		for _, cuts := range cutSets {
			diffStreams(t, cfg, w, rx, cuts, acks, nil)
			if halfDuplex {
				diffStreams(t, cfg, w, rx, cuts, acks, ackHook(w, r.Float64(), 0.05+r.Float64()))
			}
		}
	}
}

// TestSweepRetireBlocksWithinWindow pins the retire hook's timing: a
// downlink acknowledging a reception blocks an arrival in the same
// window that overlaps it, but not one that started before the
// reception ended.
func TestSweepRetireBlocksWithinWindow(t *testing.T) {
	cfg := testConfig(false, true)
	cfg.Capacity = 8
	w := &Window{}
	w.Append(0, lora.SF7, 0, 0, 1, 1)     // tok 0: delivered, ends at 1
	w.Append(1, lora.SF7, 1, 0.5, 2.5, 1) // tok 1: started before the end: locks
	w.Append(2, lora.SF7, 1, 2.6, 3, 1)   // tok 2: inside the ACK [1.5, 2.7): blocked
	w.Append(3, lora.SF7, 1, 2.8, 3.2, 1) // tok 3: after the ACK: locks
	rx := []float64{strongMW, strongMW, strongMW, strongMW}
	hook := func(tok int) (float64, float64, bool) {
		if tok != 0 {
			return 0, 0, false
		}
		return 1.5, 2.7, true
	}
	var g Gateway
	g.Reset(cfg)
	done := g.Sweep(w, []int32{0, 1, 2, 3}, rx, math.Inf(1), nil, hook)
	want := map[int]Outcome{0: OutcomeDelivered, 1: OutcomeDelivered, 2: OutcomeCapacity, 3: OutcomeDelivered}
	for _, d := range done {
		if d.Outcome != want[d.Tok] {
			t.Errorf("tok %d outcome = %v, want %v", d.Tok, d.Outcome, want[d.Tok])
		}
	}
	if g.Counters.AckBlocked != 1 {
		t.Errorf("ack blocked = %d, want 1", g.Counters.AckBlocked)
	}
	diffStreams(t, cfg, w, rx, []float64{math.Inf(1)}, nil, hook)
}

func TestBatchCarryOverCollision(t *testing.T) {
	// A reception locked in window 1 is corrupted by an overlap arriving
	// in window 2: the collision loss must be charged at completion, in
	// window 2, at both paths.
	w := &Window{}
	w.Append(0, lora.SF7, 0, 0.5, 3, 1)
	w.Append(1, lora.SF7, 0, 1.5, 4, 1)
	rx := []float64{strongMW, strongMW}
	diffStreams(t, testConfig(false, false), w, rx, []float64{1, 2, math.Inf(1)}, nil, nil)

	var g Gateway
	g.Reset(testConfig(false, false))
	done := g.Batch(span(w, 0, 1), rx[:1], 1, nil)
	if len(done) != 0 || len(g.active) != 1 {
		t.Fatalf("window 1: done=%v active=%d, want carry-over", done, len(g.active))
	}
	done = g.Batch(span(w, 1, 2), rx[1:], math.Inf(1), done[:0])
	if len(done) != 2 {
		t.Fatalf("window 2: done=%v, want both completions", done)
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

func TestBatchEmitsFailureVerdicts(t *testing.T) {
	cfg := testConfig(false, true)
	cfg.Capacity = 1
	var g Gateway
	g.Reset(cfg)
	g.AddAckWindow(4, 5)
	w := &Window{}
	w.Append(0, lora.SF7, 0, 0, 1, 1)   // locks, delivered
	w.Append(1, lora.SF7, 1, 0.5, 2, 1) // other channel, capacity drop
	w.Append(2, lora.SF7, 0, 3, 3.5, 1) // below sensitivity
	w.Append(3, lora.SF7, 0, 4.2, 6, 1) // half-duplex blocked
	weak := lora.DBmToMilliwatts(lora.SensitivityDBm(lora.SF7)) / 2
	rx := []float64{strongMW, strongMW, weak, strongMW}
	done := g.Batch(w, rx, math.Inf(1), nil)
	want := map[int]Outcome{0: OutcomeDelivered, 1: OutcomeCapacity, 2: OutcomeNoSignal, 3: OutcomeCapacity}
	if len(done) != len(want) {
		t.Fatalf("done = %+v, want %d verdicts", done, len(want))
	}
	for _, d := range done {
		if d.Outcome != want[d.Tok] {
			t.Errorf("tok %d outcome = %v, want %v", d.Tok, d.Outcome, want[d.Tok])
		}
	}
	ctr := g.Counters
	if ctr.CapacityDrops != 1 || ctr.SensitivityMisses != 1 || ctr.AckBlocked != 1 {
		t.Errorf("counters = %+v, want one capacity drop, one miss, one blocked", ctr)
	}
}

func TestBatchWarmIsAllocationFree(t *testing.T) {
	cfg := testConfig(true, true)
	var g Gateway
	w, rx := randomWindow(rng.New(3), 64, 16, 2, 20)
	var sel []int32
	for i, p := range rx {
		if p >= cfg.Thresholds.SensitivityMW[w.SF[i]-lora.SF7] {
			sel = append(sel, int32(i))
		}
	}
	done := make([]Done, 0, 128)
	// Warm the pass buffers once.
	g.Reset(cfg)
	done = g.Batch(w, rx, math.Inf(1), done[:0])
	avg := testing.AllocsPerRun(50, func() {
		g.Reset(cfg)
		g.AddAckWindow(1, 2)
		done = g.Batch(w, rx, math.Inf(1), done[:0])
	})
	if avg != 0 {
		t.Errorf("warm Batch allocates %v per window, want 0", avg)
	}
	avg = testing.AllocsPerRun(50, func() {
		g.Reset(cfg)
		g.AddAckWindow(1, 2)
		done = g.Sweep(w, sel, rx, math.Inf(1), done[:0], nil)
	})
	if avg != 0 {
		t.Errorf("warm Sweep allocates %v per window, want 0", avg)
	}
}

func TestArrivePrunesAckWindowsOnEveryPath(t *testing.T) {
	cfg := testConfig(false, true)
	var g Gateway
	g.Reset(cfg)
	// Expired, boundary-equal (w.to == startS) and zero-length windows
	// must all be pruned by a below-sensitivity arrival — the path that
	// used to return before the half-duplex branch ran.
	g.AddAckWindow(1, 2)
	g.AddAckWindow(2, 5) // boundary: to == startS of the probe below
	g.AddAckWindow(3, 3) // zero-length, already past
	g.AddAckWindow(6, 7) // still ahead: must survive
	weak := lora.DBmToMilliwatts(lora.SensitivityDBm(lora.SF7)) / 2
	if o, locked := arrive(t, &g, 0, 0, lora.SF7, 0, 5, 5.5, weak); locked || o != OutcomeNoSignal {
		t.Fatalf("outcome = %v, locked = %v; want no-signal", o, locked)
	}
	if n := len(g.ackWins); n != 1 {
		t.Fatalf("ackWins after sensitivity miss = %d, want 1 (only the future window)", n)
	}
	// The surviving window still blocks.
	if o, locked := arrive(t, &g, 1, 1, lora.SF7, 0, 6.5, 8, strongMW); locked || o != OutcomeCapacity || g.Counters.AckBlocked != 1 {
		t.Fatalf("outcome = %v, locked = %v, ack blocked = %d; want blocked", o, locked, g.Counters.AckBlocked)
	}
	// A boundary-equal window (to == startS) never blocks: [from, to) is
	// closed on the right before the arrival starts.
	g.Reset(cfg)
	g.AddAckWindow(1, 2)
	if o, locked := arrive(t, &g, 2, 2, lora.SF7, 0, 2, 3, strongMW); !locked {
		t.Fatalf("boundary-equal window blocked: outcome = %v, want locked", o)
	}
	if len(g.ackWins) != 0 {
		t.Fatalf("boundary-equal window not pruned: %d left", len(g.ackWins))
	}
}

// simWindow builds one window shaped like a gateway's share of a
// perfbench sim-paper window: 600 transmissions from 600 devices spread
// over 3 s on 8 channels, spreading factors weighted toward SF7 with
// their 20-byte times on air, and received powers of which about 80 %
// fall below sensitivity. It returns the window, its power column, and
// the visible entries.
func simWindow() (*Window, []float64, []int32) {
	r := rng.New(9)
	const n = 600
	starts := make([]float64, n)
	for i := range starts {
		starts[i] = r.Float64() * 3
	}
	slices.Sort(starts)
	sfWeights := []int{40, 20, 15, 10, 10, 5}
	w := &Window{}
	rx := make([]float64, n)
	var sel []int32
	for i, s := range starts {
		sf, u := lora.SF7, int(r.Uint64()%100)
		for _, wt := range sfWeights {
			if u < wt {
				break
			}
			u -= wt
			sf++
		}
		w.Append(i, sf, int(r.Uint64()%8), s, s+lora.TimeOnAir(20, sf, 125e3, lora.CR47), 1)
		sens := lora.DBmToMilliwatts(lora.SensitivityDBm(sf))
		if r.Float64() < 0.8 {
			rx[i] = sens * math.Pow(10, -3*r.Float64())
			continue
		}
		rx[i] = sens * math.Pow(10, 2*r.Float64())
		sel = append(sel, int32(i))
	}
	return w, rx, sel
}

// BenchmarkBatch times the receiver kernel on simWindow at an 8-demodulator
// gateway: "full" is full-window Batch, which selects the visible entries
// itself and emits a NoSignal Done for each miss; "selection" is Sweep
// over the visible entries, the way sim.Run drives it after deciding
// sensitivity on the raw fading draws.
func BenchmarkBatch(b *testing.B) {
	cfg := testConfig(false, false)
	cfg.Capacity = 8
	w, rx, sel := simWindow()
	var g Gateway
	done := make([]Done, 0, w.Len())
	for _, bm := range []struct {
		name string
		run  func() []Done
	}{
		{"full", func() []Done { return g.Batch(w, rx, math.Inf(1), done[:0]) }},
		{"selection", func() []Done { return g.Sweep(w, sel, rx, math.Inf(1), done[:0], nil) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Reset(cfg)
				done = bm.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w.Len()), "ns/rx")
		})
	}
}
