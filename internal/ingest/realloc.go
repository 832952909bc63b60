package ingest

import (
	"fmt"
	"sort"
	"sync"

	"eflora/internal/alloc"
	"eflora/internal/lora"
	"eflora/internal/lorawan"
	"eflora/internal/model"
	"eflora/internal/scenario"
)

// AddrForIndex maps a scenario device index to its DevAddr (index+1, so
// address 0 — invalid in this deployment — is never issued).
func AddrForIndex(i int) uint32 { return uint32(i) + 1 }

// IndexForAddr inverts AddrForIndex; ok is false for address 0.
func IndexForAddr(addr uint32) (int, bool) {
	if addr == 0 {
		return 0, false
	}
	return int(addr) - 1, true
}

// ReallocConfig tunes the drift detector. Every field is taken as given:
// zero is a valid setting (no SNR headroom, no PRR floor, trust from the
// first frame).
type ReallocConfig struct {
	// SNRMarginDB is the headroom required above the current SF's
	// demodulation floor before a device counts as healthy: a device
	// whose rolling SNR sits below threshold+margin is drifting.
	SNRMarginDB float64
	// MinPRR is the reception-ratio floor.
	MinPRR float64
	// MinFrames is how many deliveries a device must have before the
	// detector trusts its statistics.
	MinFrames int
}

// maxReassignPerStep caps how many devices one Step reassigns, bounding
// the work done on the serving path's timer.
const maxReassignPerStep = 32

// Reallocator closes the paper's control loop online: it watches the
// rolling per-device statistics a Tracker accumulates, flags devices
// whose observed link quality has drifted below what their assigned
// spreading factor needs, and hands each one to alloc.Incremental for a
// single-device greedy reassignment. Changes come back as scenario
// deltas so downstream tooling can follow the live allocation.
type Reallocator struct {
	cfg     ReallocConfig
	tracker *Tracker

	mu  sync.Mutex
	inc *alloc.Incremental
	// Reassigned counts devices moved over the reallocator's lifetime.
	reassigned int
	// ansPending marks devices with an outstanding LinkADRReq; ans tallies
	// the LinkADRAns outcomes devices reported back.
	ansPending map[uint32]bool
	ans        AnsCounters
}

// AnsCounters tallies the fate of LinkADRReq commands as reported by the
// devices themselves, instead of assuming every sent command was applied:
// Sent counts commands handed to the downlink path, Applied/Rejected the
// LinkADRAns answers by outcome, Unsolicited answers with no outstanding
// command (a retransmitted or forged ans).
type AnsCounters struct {
	Sent, Applied, Rejected, Unsolicited int
}

// NewReallocator wires a seeded incremental maintainer to a tracker.
func NewReallocator(inc *alloc.Incremental, tracker *Tracker, cfg ReallocConfig) *Reallocator {
	return &Reallocator{
		cfg:        cfg,
		tracker:    tracker,
		inc:        inc,
		ansPending: make(map[uint32]bool),
	}
}

// Reassigned reports how many device moves Step has made in total.
func (r *Reallocator) Reassigned() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reassigned
}

// RestoreReassigned resets the lifetime move counter — recovery restoring
// a snapshot's accounting into a freshly built reallocator.
func (r *Reallocator) RestoreReassigned(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reassigned = n
}

// NoteCommandSent records that a LinkADRReq for devAddr was handed to the
// downlink path, opening an outstanding-answer window for the device.
func (r *Reallocator) NoteCommandSent(devAddr uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ans.Sent++
	r.ansPending[devAddr] = true
}

// NoteAns folds a device's LinkADRAns into the accounting and reports
// whether it acknowledged an outstanding command. A rejected answer also
// clears the device's rolling statistics: the server's model of the
// device is wrong (it kept its old radio settings), so stats accumulated
// under the assumed-new assignment must not drive the next decision.
func (r *Reallocator) NoteAns(devAddr uint32, ans lorawan.LinkADRAns) bool {
	r.mu.Lock()
	pending := r.ansPending[devAddr]
	if !pending {
		r.ans.Unsolicited++
		r.mu.Unlock()
		return false
	}
	delete(r.ansPending, devAddr)
	applied := ans.Applied()
	if applied {
		r.ans.Applied++
	} else {
		r.ans.Rejected++
	}
	r.mu.Unlock()
	if !applied {
		r.tracker.Reset(devAddr)
	}
	return true
}

// Ans returns the LinkADRAns accounting.
func (r *Reallocator) Ans() AnsCounters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ans
}

// Allocation snapshots the maintained allocation.
func (r *Reallocator) Allocation() model.Allocation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inc.Allocation()
}

// Step runs one pass of the control loop at server time nowS: detect
// drifting devices, reassign each, and return the resulting allocation
// delta (nil when nothing moved).
func (r *Reallocator) Step(nowS float64) (*scenario.Delta, error) {
	stats := r.tracker.Snapshot()

	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.inc.Allocation()
	n := r.inc.N()

	// Deterministic scan order regardless of map iteration.
	addrs := make([]uint32, 0, len(stats))
	for a := range stats {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	var drifting []int
	for _, a := range addrs {
		s := stats[a]
		if s.Received < uint64(r.cfg.MinFrames) {
			continue
		}
		i, ok := IndexForAddr(a)
		if !ok || i >= n {
			continue
		}
		need := lora.SNRThresholdDB(cur.SF[i]) + r.cfg.SNRMarginDB
		if s.EwmaSNRdB < need || s.PRR() < r.cfg.MinPRR {
			drifting = append(drifting, i)
			if len(drifting) >= maxReassignPerStep {
				break
			}
		}
	}
	if len(drifting) == 0 {
		return nil, nil
	}

	delta := &scenario.Delta{
		Version: scenario.CurrentVersion,
		AtS:     nowS,
		Comment: fmt.Sprintf("online realloc: %d drifting device(s)", len(drifting)),
	}
	for _, i := range drifting {
		changed, err := r.inc.ReassignDevice(i)
		if err != nil {
			return nil, err
		}
		// Forget the pre-move history either way: if the model kept the
		// settings, re-triggering next tick with the same stale EWMA
		// would only spin the detector. Kept-but-reset devices are
		// recorded in Resets so the delta is a complete account of the
		// step's state mutation (the WAL-replay contract).
		r.tracker.Reset(AddrForIndex(i))
		if !changed {
			delta.Resets = append(delta.Resets, i)
			continue
		}
		delta.Changes = append(delta.Changes, scenario.DeltaChange{Device: i})
		r.reassigned++
	}
	if len(delta.Changes) == 0 && len(delta.Resets) == 0 {
		return nil, nil
	}
	// One snapshot serves every change: a move rewrites only its own
	// device, so each moved device's assignment is final once it moved.
	if len(delta.Changes) > 0 {
		a := r.inc.Allocation()
		for k := range delta.Changes {
			c := &delta.Changes[k]
			c.SF, c.TPdBm, c.Channel = int(a.SF[c.Device]), a.TPdBm[c.Device], a.Channel[c.Device]
		}
	}
	return delta, nil
}
