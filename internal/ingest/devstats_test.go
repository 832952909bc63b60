package ingest

import (
	"math"
	"testing"

	"eflora/internal/netserver"
)

func delivery(addr, fcnt uint32, snr float64, gw int) netserver.Delivery {
	return netserver.Delivery{
		DevAddr:  addr,
		FCnt:     fcnt,
		Gateways: []netserver.Uplink{{Gateway: gw, SNRdB: snr}},
	}
}

func TestTrackerPRRFromFCntGaps(t *testing.T) {
	tr := NewTracker(0)
	// FCnts 1, 2, 5, 6: the 2->5 jump means two lost transmissions.
	for _, f := range []uint32{1, 2, 5, 6} {
		tr.Observe(delivery(9, f, -5, 0))
	}
	s, ok := tr.Get(9)
	if !ok {
		t.Fatal("device untracked")
	}
	if s.Received != 4 || s.Expected != 6 {
		t.Errorf("received/expected = %d/%d, want 4/6", s.Received, s.Expected)
	}
	if got := s.PRR(); math.Abs(got-4.0/6.0) > 1e-12 {
		t.Errorf("PRR = %v, want 2/3", got)
	}
	if s.LastFCnt != 6 {
		t.Errorf("stats = %+v", s)
	}
}

func TestTrackerEWMAAndReset(t *testing.T) {
	tr := NewTracker(0.5)
	tr.Observe(delivery(3, 1, 0, 1))
	tr.Observe(delivery(3, 2, -8, 2))
	s, _ := tr.Get(3)
	if math.Abs(s.EwmaSNRdB-(-4)) > 1e-12 {
		t.Errorf("EWMA = %v, want -4", s.EwmaSNRdB)
	}
	// Out-of-order counter: counted, no gap charged.
	tr.Observe(delivery(3, 1, -8, 2))
	s, _ = tr.Get(3)
	if s.Received != 3 || s.Expected != 3 {
		t.Errorf("after ooo: received/expected = %d/%d, want 3/3", s.Received, s.Expected)
	}
	tr.Reset(3)
	if _, ok := tr.Get(3); ok {
		t.Error("reset did not forget the device")
	}
	if tr.Len() != 0 {
		t.Errorf("len = %d, want 0", tr.Len())
	}
	// Deliveries without gateway metadata are ignored.
	tr.Observe(netserver.Delivery{DevAddr: 4, FCnt: 1})
	if tr.Len() != 0 {
		t.Error("gateway-less delivery tracked")
	}
}

func TestTrackerSnapshotIsCopy(t *testing.T) {
	tr := NewTracker(0)
	tr.Observe(delivery(1, 1, 2, 0))
	snap := tr.Snapshot()
	tr.Observe(delivery(1, 2, 2, 0))
	if snap[1].Received != 1 {
		t.Error("snapshot aliases live stats")
	}
}
