// Batch and Sweep are the only entry points for arrivals at the receiver
// state machine: one call consumes a transmission window laid out in
// parallel columns, from a simulator's whole window down to the single
// arrival the live frontend and the daemon's probe pass per call. The
// engine tests keep an event-by-event scalar receiver as the reference
// the kernel must match bit for bit. Sweep is the one kernel: it runs
// the entries of a window that cleared sensitivity through two passes
// over columns,
//
//  1. a fused sequential sweep in arrival order — retiring the
//     receptions that ended, half-duplex, the collision scan against the
//     in-flight set and demodulator capacity, one arrival after another
//     with one flag byte per entry — and
//  2. a token-order pass that completes the receptions ending by the
//     cut through FinishUpTo and verdict and emits Done entries.
//
// Batch takes the full window with its received-power column, splits
// off the below-sensitivity entries and calls Sweep on the rest.
// sim.Run decides sensitivity on the raw fading draw instead (DESIGN.md
// "Batch receiver kernel") and calls Sweep directly, so the receptions
// that can never lock cost it no kernel work.
//
// The verdict pass cannot fuse into the sweep: a reception's collision
// mark can arrive from any later transmission that overlaps it, so its
// outcome is only final once the sweep has moved past its end time.
//
// The sweep's in-flight set is bounded by the demodulator capacity
// (locking is refused beyond it, and the carry-over from the previous
// window obeyed the same bound), so the per-arrival scan is a handful
// of comparisons over one small cache-resident slice. An earlier
// revision of this kernel partitioned the scan into per-(SF, channel)
// buckets; under the capacity bound the partitioning saved no
// comparisons worth the scattered chain-table traffic it introduced,
// and the fused direct sweep measured ~1.5x faster end to end. Revisit
// bucketing only if a receiver model ever drops the capacity bound.
// See DESIGN.md "Batch receiver kernel".
package engine

import (
	"eflora/internal/lora"
	"eflora/internal/slab"
)

// Window is one transmission window in struct-of-arrays form: column i
// across all slices describes one transmission, carrying token Tok0+i.
// Entries must be sorted by (StartS, Dev), their arrival order. TpMW is the transmit power the
// driver combines with its per-gateway gain and fading model to build
// the received-power column Batch consumes; the kernel itself never
// reads it.
type Window struct {
	// Tok0 is the token of column 0; column i carries token Tok0 + i.
	Tok0   int
	Dev    []int32
	SF     []lora.SF
	Ch     []int32
	StartS []float64
	EndS   []float64
	TpMW   []float64
}

// Len reports the number of transmissions in the window.
func (w *Window) Len() int { return len(w.StartS) }

// Reset empties the window (retaining column capacity) and sets the
// token base for the next fill.
func (w *Window) Reset(tok0 int) {
	w.Tok0 = tok0
	w.Dev = w.Dev[:0]
	w.SF = w.SF[:0]
	w.Ch = w.Ch[:0]
	w.StartS = w.StartS[:0]
	w.EndS = w.EndS[:0]
	w.TpMW = w.TpMW[:0]
}

// Append adds one transmission to every column.
//
//eflora:hotpath
func (w *Window) Append(dev int, sf lora.SF, ch int, startS, endS, tpMW float64) {
	w.Dev = append(w.Dev, int32(dev))
	w.SF = append(w.SF, sf)
	w.Ch = append(w.Ch, int32(ch))
	w.StartS = append(w.StartS, startS)
	w.EndS = append(w.EndS, endS)
	w.TpMW = append(w.TpMW, tpMW)
}

// Grow ensures every column can hold n entries without reallocating,
// so a warmed window fills allocation-free.
func (w *Window) Grow(n int) {
	w.Dev = slab.Grow(w.Dev, n)[:len(w.Dev)]
	w.SF = slab.Grow(w.SF, n)[:len(w.SF)]
	w.Ch = slab.Grow(w.Ch, n)[:len(w.Ch)]
	w.StartS = slab.Grow(w.StartS, n)[:len(w.StartS)]
	w.EndS = slab.Grow(w.EndS, n)[:len(w.EndS)]
	w.TpMW = slab.Grow(w.TpMW, n)[:len(w.TpMW)]
}

// Per-entry resolution flags of the sweep passes.
const (
	bfBlocked  uint8 = 1 << iota // lost to the gateway's own downlink
	bfDropped                    // no free demodulator
	bfCollided                   // corrupted by same-SF same-channel overlap
)

// openRx is one in-flight locked reception during the sweep: enough of
// its state to apply the collision rule, plus the cell index (carried
// active below nc, selected entry nc+j) to mark it collided in place.
type openRx struct {
	end  float64
	rx   float64
	dev  int32
	ch   int32
	cell int32
	sf   lora.SF
}

// batchState holds the kernel's reusable pass buffers. They live on the
// Gateway so a warmed receiver runs Batch and Sweep allocation-free;
// Reset leaves them alone (contents are rebuilt from scratch every call).
type batchState struct {
	flags []uint8  // per-selected-entry resolution flags
	open  []openRx // in-flight locked receptions during the sweep
	sel   []int32  // Batch's selection: the window entries that cleared sensitivity
}

// markCollided marks the reception in cell c (carried active below nc,
// selected entry at nc+j) corrupted.
func (g *Gateway) markCollided(c int32, nc int) {
	if int(c) < nc {
		g.active[c].collided = true
	} else {
		g.batch.flags[int(c)-nc] |= bfCollided
	}
}

// retire hands a reception leaving the sweep's open list to the driver's
// hook if it will be delivered, and registers the window the hook
// returns. Its cell is a carried reception below nc or selected entry
// sel[cell-nc] of the window whose column 0 carries token tok0.
func (g *Gateway) retire(a openRx, tok0 int, sel []int32, nc int, retire Retire) {
	var tok int
	var collided bool
	if c := int(a.cell); c < nc {
		tok, collided = g.active[c].tok, g.active[c].collided
	} else {
		tok, collided = tok0+int(sel[c-nc]), g.batch.flags[c-nc]&bfCollided != 0
	}
	if collided || !g.decodable(a.rx, a.sf) {
		return
	}
	if from, to, ok := retire(tok); ok {
		g.AddAckWindow(from, to)
	}
}

// pruneAckWins drops the half-duplex windows that end at or before t:
// they can block no arrival starting at or after t.
func (g *Gateway) pruneAckWins(t float64) {
	wins := g.ackWins[:0]
	for _, aw := range g.ackWins {
		if aw.to > t {
			wins = append(wins, aw)
		}
	}
	g.ackWins = wins
}

// Batch runs the whole window through the receiver: every column entry
// arrives in order, every reception (carried or new) ending at or
// before cut completes, and one Done per verdict is appended to dst (a
// caller-owned reused buffer). rxMW is the received-power column at
// this gateway, parallel to the window. Batch emits a Done for arrivals
// that never lock as well — OutcomeNoSignal below sensitivity,
// OutcomeCapacity for demodulator exhaustion and half-duplex blocking —
// so drivers consume a single verdict stream; an arrival that locks gets
// its Done when it completes, in this call or a later one.
//
// Batch selects the entries that clear sensitivity, emits the
// OutcomeNoSignal Dones for the rest in token order and hands the
// selection to Sweep, so Done order is the misses first, then carried
// completions, then the selected entries in token order; all consumers
// key on Tok.
//
// Every StartS must lie at or below cut, and successive calls must not
// overlap in time: receptions with EndS > cut carry over to the next
// call, an entry starting exactly at cut among them. So a one-entry
// window cut at its own start is the event-by-event call: it completes
// the receptions that ended by the arrival, then runs the arrival.
//
//eflora:hotpath
func (g *Gateway) Batch(w *Window, rxMW []float64, cut float64, dst []Done) []Done {
	b := &g.batch
	sel := b.sel[:0]
	sens := &g.cfg.Thresholds.SensitivityMW
	for i, pi := range rxMW[:w.Len()] {
		if pi < sens[w.SF[i]-lora.SF7] {
			g.Counters.SensitivityMisses++
			dst = append(dst, Done{Tok: w.Tok0 + i, Outcome: OutcomeNoSignal})
			continue
		}
		sel = append(sel, int32(i))
	}
	b.sel = sel
	return g.Sweep(w, sel, rxMW, cut, dst, nil)
}

// Retire is Sweep's optional hook for a half-duplex driver. Sweep calls
// it once for each reception it retires as decodable (uncollided and
// above its SNR threshold, so its verdict will be OutcomeDelivered), at
// the point where that verdict becomes final: at the first selected
// arrival that starts at or after the reception's end, or, for a
// reception still open with end <= cut, when the arrival pass ends. When
// ok is set, Sweep registers [from, to) as AddAckWindow would before it
// checks any later arrival, so a downlink the driver schedules for the
// reception blocks the arrivals it overlaps within the same window. An
// event-by-event driver gets the same timing by registering the window
// of each delivery FinishUpTo returns before the next arrival.
type Retire func(tok int) (from, to float64, ok bool)

// Sweep is Batch over a selection of the window: sel lists, in
// ascending order, the entries that cleared sensitivity at this
// gateway, and rxMW is the window's received-power column, read only
// at the selected entries. The unselected entries are invisible here,
// as below-sensitivity arrivals are to a receiver: they lock nothing,
// corrupt nothing and get no Done, and the caller counts them as
// sensitivity misses. Selected entry sel[j] keeps token
// w.Tok0 + sel[j], so carry-over and the caller's token bookkeeping do
// not depend on the selection. Done order is carried completions first,
// then the selected entries in token order. The cut and carry-over
// rules are Batch's. retire, when non-nil, is called for each reception
// the sweep retires as decodable (see Retire); Batch passes nil.
//
//eflora:hotpath
func (g *Gateway) Sweep(w *Window, sel []int32, rxMW []float64, cut float64, dst []Done, retire Retire) []Done {
	b := &g.batch
	nc := len(g.active)
	flags := slab.GrowZero(b.flags, len(sel))
	b.flags = flags

	// Pass 1: fused sequential sweep in arrival order. open tracks the
	// locked receptions still in flight, seeded from the carry-over;
	// every arrival retires the entries that ended by its start (their
	// verdicts wait for pass 2), then runs the collision scan, the
	// half-duplex check and the capacity check, in that order. The
	// capacity bound caps len(open), so the Grow below covers every
	// append in the loop and a warmed gateway sweeps allocation-free.
	open := slab.Grow(b.open, nc+g.cfg.Capacity)[:0]
	for i := range g.active {
		rx := &g.active[i]
		open = append(open, openRx{end: rx.endS, rx: rx.rxMW, dev: int32(rx.dev),
			ch: int32(rx.ch), cell: int32(i), sf: rx.sf})
	}
	for j, i := range sel {
		start := w.StartS[i]
		live := open[:0]
		for _, a := range open {
			if a.end > start {
				live = append(live, a)
			} else if retire != nil {
				g.retire(a, w.Tok0, sel, nc, retire)
			}
		}
		open = live
		if g.cfg.HalfDuplex {
			g.pruneAckWins(start)
		}
		// Collision scan before the half-duplex and capacity checks: a
		// transmission that never locks is still RF energy on the air
		// and corrupts locked receptions all the same; collision marks
		// on the arrival itself only take effect if it locks.
		pi := rxMW[i]
		dev, sf, ch := w.Dev[i], w.SF[i], w.Ch[i]
		collided := false
		for k := range open {
			a := &open[k]
			if a.dev == dev || a.sf != sf || a.ch != ch {
				continue
			}
			if g.cfg.Capture {
				switch {
				case pi >= g.cfg.CaptureLin*a.rx:
					g.markCollided(a.cell, nc)
				case a.rx >= g.cfg.CaptureLin*pi:
					collided = true
				default:
					collided = true
					g.markCollided(a.cell, nc)
				}
			} else {
				collided = true
				g.markCollided(a.cell, nc)
			}
		}
		if g.cfg.HalfDuplex {
			blocked := false
			for _, aw := range g.ackWins {
				if aw.from < w.EndS[i] && start < aw.to {
					blocked = true
					break
				}
			}
			if blocked {
				flags[j] |= bfBlocked
				g.Counters.AckBlocked++
				continue
			}
		}
		if len(open) >= g.cfg.Capacity {
			flags[j] |= bfDropped
			g.Counters.CapacityDrops++
			continue
		}
		if collided {
			flags[j] |= bfCollided
		}
		open = append(open, openRx{end: w.EndS[i], rx: pi, dev: dev,
			ch: ch, cell: int32(nc + j), sf: sf})
	}
	if retire != nil {
		for _, a := range open {
			if a.end <= cut {
				g.retire(a, w.Tok0, sel, nc, retire)
			}
		}
	}
	b.open = open[:0]
	if n := w.Len(); g.cfg.HalfDuplex && n > 0 {
		// Unselected arrivals prune as well: pruning at the window's last
		// start drops every window any of its arrivals could drop.
		g.pruneAckWins(w.StartS[n-1])
	}

	// Pass 2: verdicts. Carried receptions ending at or before cut
	// complete first (collision marks from pass 1 included), then every
	// selected entry resolves in token order: failure Done, carry-over
	// into the active list, or completion verdict.
	dst = g.FinishUpTo(cut, dst)
	for j, i := range sel {
		f := flags[j]
		tok := w.Tok0 + int(i)
		switch {
		case f&(bfBlocked|bfDropped) != 0:
			dst = append(dst, Done{Tok: tok, Outcome: OutcomeCapacity})
		case w.EndS[i] > cut:
			g.active = append(g.active, reception{
				tok: tok, dev: int(w.Dev[i]), ch: int(w.Ch[i]), sf: w.SF[i],
				endS: w.EndS[i], rxMW: rxMW[i], collided: f&bfCollided != 0,
			})
		default:
			dst = append(dst, g.verdict(tok, f&bfCollided != 0, rxMW[i], w.SF[i]))
		}
	}
	return dst
}
