package netserver

import (
	"bytes"
	"sync"
	"testing"

	"eflora/internal/lorawan"
)

func deviceFixture(addr uint32) Device {
	var k lorawan.Keys
	for i := range k.NwkSKey {
		k.NwkSKey[i] = byte(addr) + byte(i)
		k.AppSKey[i] = byte(addr) ^ byte(i*7)
	}
	return Device{DevAddr: addr, Keys: k}
}

func encode(t *testing.T, d Device, fcnt uint32, payload []byte) []byte {
	t.Helper()
	phy, err := lorawan.Encode(lorawan.Frame{
		MType: lorawan.UnconfirmedDataUp, DevAddr: d.DevAddr,
		FCnt: fcnt, FPort: 1, Payload: payload,
	}, d.Keys)
	if err != nil {
		t.Fatal(err)
	}
	return phy
}

// collect returns a server over devs whose sink appends every delivery to
// the returned slice.
func collect(devs ...Device) (*Server, *[]Delivery) {
	var ds []Delivery
	return New(devs, func(d Delivery) { ds = append(ds, d) }), &ds
}

func TestDeduplicatesGatewayCopies(t *testing.T) {
	dev := deviceFixture(0x100)
	s, delivered := collect(dev)
	phy := encode(t, dev, 1, []byte("reading-1"))
	// Three gateways report the same frame within the window.
	for gw := 0; gw < 3; gw++ {
		if err := s.HandleUplink(Uplink{
			Gateway: gw, ReceivedAtS: 10 + float64(gw)*0.01,
			SNRdB: float64(gw), PHYPayload: phy,
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	ds := *delivered
	if len(ds) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(ds))
	}
	if s.Duplicates != 2 {
		t.Errorf("duplicates = %d, want 2", s.Duplicates)
	}
	if len(ds[0].Gateways) != 3 {
		t.Fatalf("gateway copies = %d, want 3", len(ds[0].Gateways))
	}
	// Best SNR first: gateway 2 reported SNR 2.
	if ds[0].Gateways[0].Gateway != 2 {
		t.Errorf("best gateway = %d, want 2", ds[0].Gateways[0].Gateway)
	}
	if !bytes.Equal(ds[0].Payload, []byte("reading-1")) {
		t.Errorf("payload = %q", ds[0].Payload)
	}
}

func TestSeparateFramesDelivered(t *testing.T) {
	dev := deviceFixture(0x200)
	s, delivered := collect(dev)
	for fcnt := uint32(1); fcnt <= 5; fcnt++ {
		phy := encode(t, dev, fcnt, []byte{byte(fcnt)})
		if err := s.HandleUplink(Uplink{Gateway: 0, ReceivedAtS: float64(fcnt) * 10, PHYPayload: phy}); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	ds := *delivered
	if len(ds) != 5 {
		t.Fatalf("deliveries = %d, want 5", len(ds))
	}
	for i, d := range ds {
		if d.FCnt != uint32(i+1) {
			t.Errorf("delivery %d FCnt = %d", i, d.FCnt)
		}
	}
}

func TestReplayRejected(t *testing.T) {
	dev := deviceFixture(0x300)
	s, delivered := collect(dev)
	phy5 := encode(t, dev, 5, []byte("x"))
	phy4 := encode(t, dev, 4, []byte("y"))
	if err := s.HandleUplink(Uplink{ReceivedAtS: 1, PHYPayload: phy5}); err != nil {
		t.Fatal(err)
	}
	// A strictly older counter arriving after the window is a replay.
	if err := s.HandleUplink(Uplink{ReceivedAtS: 10, PHYPayload: phy4}); err == nil {
		t.Error("replayed counter accepted")
	}
	// The current counter arriving again is a late gateway copy, not an
	// attack: counted as a Duplicate and not an error.
	if err := s.HandleUplink(Uplink{ReceivedAtS: 20, PHYPayload: phy5}); err != nil {
		t.Errorf("late copy of current frame errored: %v", err)
	}
	if s.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", s.Rejected)
	}
	if s.Duplicates != 1 {
		t.Errorf("duplicates = %d, want 1", s.Duplicates)
	}
	s.Flush()
	if ds := *delivered; len(ds) != 1 {
		t.Errorf("deliveries = %d, want 1", len(ds))
	}
}

// Regression: a same-FCnt gateway copy that arrives after the dedup
// window closed used to trip the replay check (Rejected); it must count
// as a late Duplicate so dedup accounting is flush-timing invariant.
func TestLateCopyAfterWindowCountedAsDuplicate(t *testing.T) {
	dev := deviceFixture(0x310)
	s := New([]Device{dev}, nil)
	phy := encode(t, dev, 7, []byte("m"))
	if err := s.HandleUplink(Uplink{Gateway: 0, ReceivedAtS: 1, PHYPayload: phy}); err != nil {
		t.Fatal(err)
	}
	// Clock flush closes the window before the second gateway's copy
	// lands — the live-daemon sequence of events.
	if n := s.FlushExpired(2); n != 1 {
		t.Fatalf("FlushExpired = %d, want 1", n)
	}
	if err := s.HandleUplink(Uplink{Gateway: 1, ReceivedAtS: 2.1, PHYPayload: phy}); err != nil {
		t.Errorf("late copy errored: %v", err)
	}
	if s.Duplicates != 1 || s.Rejected != 0 {
		t.Errorf("duplicates/rejected = %d/%d, want 1/0", s.Duplicates, s.Rejected)
	}
	if s.Delivered != 1 {
		t.Errorf("delivered = %d, want 1", s.Delivered)
	}
}

func TestUnknownDeviceAndBadMIC(t *testing.T) {
	dev := deviceFixture(0x400)
	stranger := deviceFixture(0x999)
	s := New([]Device{dev}, nil)
	if err := s.HandleUplink(Uplink{PHYPayload: encode(t, stranger, 1, []byte("?"))}); err == nil {
		t.Error("unknown device accepted")
	}
	// Known DevAddr but wrong keys -> MIC failure.
	evil := stranger
	evil.DevAddr = dev.DevAddr
	if err := s.HandleUplink(Uplink{PHYPayload: encode(t, evil, 1, []byte("!"))}); err == nil {
		t.Error("forged frame accepted")
	}
	if err := s.HandleUplink(Uplink{PHYPayload: []byte{1, 2}}); err == nil {
		t.Error("runt frame accepted")
	}
	if s.Rejected != 3 {
		t.Errorf("rejected = %d, want 3", s.Rejected)
	}
}

func TestLateCopyOutsideWindowNotMerged(t *testing.T) {
	dev := deviceFixture(0x500)
	s, delivered := collect(dev)
	phy := encode(t, dev, 1, []byte("z"))
	if err := s.HandleUplink(Uplink{Gateway: 0, ReceivedAtS: 1, PHYPayload: phy}); err != nil {
		t.Fatal(err)
	}
	// Same frame, but far outside the dedup window: it flushes the
	// pending frame and is counted as a late duplicate, not merged into
	// the delivery.
	if err := s.HandleUplink(Uplink{Gateway: 1, ReceivedAtS: 5, PHYPayload: phy}); err != nil {
		t.Errorf("late duplicate errored: %v", err)
	}
	if s.Duplicates != 1 {
		t.Errorf("duplicates = %d, want 1", s.Duplicates)
	}
	ds := *delivered
	if len(ds) != 1 || len(ds[0].Gateways) != 1 {
		t.Fatalf("deliveries = %+v", ds)
	}
}

// TestBestGateway checks that a delivery lists its best-SNR copy first:
// Gateways[0] is the copy the tracker reads.
func TestBestGateway(t *testing.T) {
	dev := deviceFixture(0x600)
	s, delivered := collect(dev)
	phy := encode(t, dev, 1, []byte("a"))
	_ = s.HandleUplink(Uplink{Gateway: 4, SNRdB: -3, ReceivedAtS: 1, PHYPayload: phy})
	_ = s.HandleUplink(Uplink{Gateway: 2, SNRdB: 6, ReceivedAtS: 1.05, PHYPayload: phy})
	if len(*delivered) != 0 {
		t.Error("delivery before the dedup window closed")
	}
	s.Flush()
	ds := *delivered
	if len(ds) != 1 || len(ds[0].Gateways) != 2 {
		t.Fatalf("deliveries = %+v", ds)
	}
	if gw := ds[0].Gateways[0].Gateway; gw != 2 {
		t.Errorf("best gateway = %d, want 2", gw)
	}
}

func TestFlushExpired(t *testing.T) {
	devA, devB := deviceFixture(0x610), deviceFixture(0x611)
	s, delivered := collect(devA, devB)
	if err := s.HandleUplink(Uplink{ReceivedAtS: 1.0, PHYPayload: encode(t, devA, 1, []byte("a"))}); err != nil {
		t.Fatal(err)
	}
	if err := s.HandleUplink(Uplink{ReceivedAtS: 1.15, PHYPayload: encode(t, devB, 1, []byte("b"))}); err != nil {
		t.Fatal(err)
	}
	// At t=1.25 only devA's window (opened at 1.0, 0.2 s) has expired.
	if n := s.FlushExpired(1.25); n != 1 {
		t.Fatalf("FlushExpired(1.25) = %d, want 1", n)
	}
	if ds := *delivered; len(ds) != 1 || ds[0].DevAddr != devA.DevAddr {
		t.Fatalf("deliveries after first flush = %+v", ds)
	}
	if got := s.PendingCount(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	if n := s.FlushExpired(2.0); n != 1 {
		t.Fatalf("FlushExpired(2.0) = %d, want 1", n)
	}
	if ds := *delivered; len(ds) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(ds))
	}
}

// TestSinkStreamsEveryDelivery pins the sink contract: every delivery
// reaches it once, in finalization order, and the counters agree.
func TestSinkStreamsEveryDelivery(t *testing.T) {
	dev := deviceFixture(0x620)
	var drained []uint32
	s := New([]Device{dev}, func(d Delivery) { drained = append(drained, d.FCnt) })
	for fcnt := uint32(1); fcnt <= 8; fcnt++ {
		phy := encode(t, dev, fcnt, []byte{byte(fcnt)})
		if err := s.HandleUplink(Uplink{ReceivedAtS: float64(fcnt) * 10, PHYPayload: phy}); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	if len(drained) != 8 {
		t.Fatalf("drained = %d, want 8", len(drained))
	}
	for i, f := range drained {
		if f != uint32(i+1) {
			t.Errorf("drained[%d] = %d, want %d", i, f, i+1)
		}
	}
	if s.Delivered != 8 {
		t.Errorf("Delivered = %d, want 8", s.Delivered)
	}
	c := s.Counters()
	if c.Uplinks != 8 || c.Delivered != 8 || c.Duplicates != 0 || c.Rejected != 0 {
		t.Errorf("counters = %+v", c)
	}
}

// TestNilSinkCountsDeliveries checks that a server without a sink still
// dedups, protects against replays and counts what it finalizes.
func TestNilSinkCountsDeliveries(t *testing.T) {
	dev := deviceFixture(0x625)
	s := New([]Device{dev}, nil)
	for fcnt := uint32(1); fcnt <= 4; fcnt++ {
		phy := encode(t, dev, fcnt, []byte{byte(fcnt)})
		for gw := 0; gw < 2; gw++ {
			if err := s.HandleUplink(Uplink{Gateway: gw, ReceivedAtS: float64(fcnt) * 10, PHYPayload: phy}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.HandleUplink(Uplink{ReceivedAtS: 50, PHYPayload: encode(t, dev, 2, nil)}); err == nil {
		t.Error("replayed counter accepted")
	}
	s.Flush()
	c := s.Counters()
	if c.Uplinks != 9 || c.Delivered != 4 || c.Duplicates != 4 || c.Rejected != 1 {
		t.Errorf("counters = %+v, want 9 uplinks, 4 delivered, 4 duplicates, 1 rejected", c)
	}
}

// TestBestGatewayAcrossDeliveries checks that each delivery ranks its
// own copies: the newest delivery's best copy comes first even though an
// earlier delivery had a better absolute SNR.
func TestBestGatewayAcrossDeliveries(t *testing.T) {
	dev := deviceFixture(0x630)
	s, delivered := collect(dev)
	phy1 := encode(t, dev, 1, []byte("a"))
	_ = s.HandleUplink(Uplink{Gateway: 4, SNRdB: 6, ReceivedAtS: 1, PHYPayload: phy1})
	phy2 := encode(t, dev, 2, []byte("b"))
	_ = s.HandleUplink(Uplink{Gateway: 1, SNRdB: -2, ReceivedAtS: 10, PHYPayload: phy2})
	_ = s.HandleUplink(Uplink{Gateway: 3, SNRdB: 0.5, ReceivedAtS: 10.05, PHYPayload: phy2})
	s.Flush()
	ds := *delivered
	if len(ds) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(ds))
	}
	if gw := ds[0].Gateways[0].Gateway; gw != 4 {
		t.Errorf("first delivery's best gateway = %d, want 4", gw)
	}
	if gw := ds[1].Gateways[0].Gateway; gw != 3 {
		t.Errorf("second delivery's best gateway = %d, want 3", gw)
	}
}

func TestConcurrentForwarders(t *testing.T) {
	devs := make([]Device, 8)
	for i := range devs {
		devs[i] = deviceFixture(uint32(0x700 + i))
	}
	s, delivered := collect(devs...)
	var wg sync.WaitGroup
	for gw := 0; gw < 4; gw++ {
		wg.Add(1)
		go func(gw int) {
			defer wg.Done()
			for f := uint32(1); f <= 20; f++ {
				for _, d := range devs {
					phy, err := lorawan.Encode(lorawan.Frame{
						MType: lorawan.UnconfirmedDataUp, DevAddr: d.DevAddr,
						FCnt: f, FPort: 1, Payload: []byte{byte(f)},
					}, d.Keys)
					if err != nil {
						t.Error(err)
						return
					}
					// Errors (replays across goroutines) are expected;
					// the server must just stay consistent.
					_ = s.HandleUplink(Uplink{
						Gateway: gw, ReceivedAtS: float64(f) * 10, PHYPayload: phy,
					})
				}
			}
		}(gw)
	}
	wg.Wait()
	s.Flush()
	ds := *delivered
	// Each (device, fcnt) pair delivers at most once.
	seen := make(map[[2]uint32]bool)
	for _, d := range ds {
		key := [2]uint32{d.DevAddr, d.FCnt}
		if seen[key] {
			t.Fatalf("duplicate delivery %08x/%d", d.DevAddr, d.FCnt)
		}
		seen[key] = true
	}
}
