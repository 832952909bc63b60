package ingest

import (
	"sync"

	"eflora/internal/netserver"
)

// DevStats is one device's rolling link-quality view, built from the
// delivery stream: SNR is an EWMA over the best gateway copy of each
// delivery, PRR is inferred from FCnt gaps (a jump of k counters means
// k-1 transmissions the network never heard).
type DevStats struct {
	// EwmaSNRdB is the exponentially weighted best-copy SNR.
	EwmaSNRdB float64
	// LastFCnt is the newest delivered counter.
	LastFCnt uint32
	// Received counts deliveries observed; Expected additionally counts
	// the FCnt gaps, so Received/Expected estimates the PRR.
	Received, Expected uint64
}

// PRR returns the received/expected packet reception ratio (1 before any
// observation).
func (s DevStats) PRR() float64 {
	if s.Expected == 0 {
		return 1
	}
	return float64(s.Received) / float64(s.Expected)
}

// Tracker maintains rolling DevStats per device. It is safe for
// concurrent use: shard workers call Observe from the delivery drain
// while the re-allocation loop snapshots.
type Tracker struct {
	// Alpha is the EWMA smoothing factor in (0, 1]; higher reacts faster
	// (default 0.25).
	alpha float64

	mu sync.Mutex
	m  map[uint32]*DevStats
}

// NewTracker creates a tracker with EWMA factor alpha (0 picks the 0.25
// default).
func NewTracker(alpha float64) *Tracker {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.25
	}
	return &Tracker{alpha: alpha, m: make(map[uint32]*DevStats)}
}

// Observe folds one delivery into the device's rolling statistics.
func (t *Tracker) Observe(d netserver.Delivery) {
	if len(d.Gateways) == 0 {
		return
	}
	snr := d.Gateways[0].SNRdB // best copy first
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[d.DevAddr]
	if !ok {
		t.m[d.DevAddr] = &DevStats{
			EwmaSNRdB: snr,
			LastFCnt:  d.FCnt,
			Received:  1,
			Expected:  1,
		}
		return
	}
	s.EwmaSNRdB += t.alpha * (snr - s.EwmaSNRdB)
	s.Received++
	if d.FCnt > s.LastFCnt {
		s.Expected += uint64(d.FCnt - s.LastFCnt)
		s.LastFCnt = d.FCnt
	} else {
		// Out-of-order or restarted counter: count the packet, assume no
		// gap.
		s.Expected++
	}
}

// Get returns device devAddr's stats (ok false if never observed).
func (t *Tracker) Get(devAddr uint32) (DevStats, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[devAddr]
	if !ok {
		return DevStats{}, false
	}
	return *s, true
}

// Snapshot copies every device's stats.
func (t *Tracker) Snapshot() map[uint32]DevStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint32]DevStats, len(t.m))
	for a, s := range t.m {
		out[a] = *s
	}
	return out
}

// Reset forgets device devAddr's history — called after a re-allocation
// so stale pre-move statistics cannot immediately re-trigger the drift
// detector.
func (t *Tracker) Reset(devAddr uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, devAddr)
}

// Len reports how many devices have been observed.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}
