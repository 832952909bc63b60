package downlink

import (
	"net"
	"testing"

	"eflora/internal/engine"
	"eflora/internal/ingest"
	"eflora/internal/lora"
	"eflora/internal/lorawan"
)

func TestRoutesUpdateLookupEvict(t *testing.T) {
	r := NewRoutes(10)
	eui := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	addr := &net.UDPAddr{IP: net.IPv4(10, 0, 0, 1), Port: 1700}
	if _, ok := r.Lookup(eui); ok {
		t.Fatal("lookup on empty table succeeded")
	}
	r.Update(eui, addr, 100)
	got, ok := r.Lookup(eui)
	if !ok || got != addr {
		t.Fatalf("lookup = %v,%v", got, ok)
	}
	// A fresh PULL_DATA moves the route.
	addr2 := &net.UDPAddr{IP: net.IPv4(10, 0, 0, 2), Port: 1700}
	r.Update(eui, addr2, 105)
	if got, _ := r.Lookup(eui); got != addr2 {
		t.Fatalf("lookup after update = %v", got)
	}
	if n := r.Evict(110); n != 0 || r.Len() != 1 {
		t.Fatalf("evict(110) = %d, len %d", n, r.Len())
	}
	if n := r.Evict(120); n != 1 || r.Len() != 0 {
		t.Fatalf("evict(120) = %d, len %d", n, r.Len())
	}
	r.Update(eui, nil, 130)
	if r.Len() != 0 {
		t.Fatal("nil address recorded")
	}
}

func testUplink(devAddr uint32, atS float64) Uplink {
	return Uplink{
		DevAddr: devAddr,
		Gateway: 0,
		EUI:     [8]byte{0xAA, 1, 2, 3, 4, 5, 6, 7},
		Tmst:    uint64(atS * 1e6),
		FreqMHz: 868.1,
		Datr:    "SF9BW125",
		AtS:     atS,
	}
}

func testPhy(t *testing.T, devAddr uint32) []byte {
	t.Helper()
	var keys lorawan.Keys
	cmd, err := lorawan.LinkADRReq{DataRate: 5, TXPower: 0, Channel: 1}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	phy, err := lorawan.EncodeDownlink(lorawan.Frame{
		MType: lorawan.UnconfirmedDataDown, DevAddr: devAddr, FCnt: 0, FPort: 0, Payload: cmd,
	}, keys)
	if err != nil {
		t.Fatal(err)
	}
	return phy
}

func TestSchedulerRX1Preferred(t *testing.T) {
	s := NewScheduler(Config{})
	phy := testPhy(t, 7)
	up := testUplink(7, 100)
	if f := s.ObserveUplink(up, 100.01); f != nil {
		t.Fatal("frame emitted with nothing queued")
	}
	f := s.Enqueue(7, phy, 100.05)
	if f == nil {
		t.Fatal("no frame inside RX1 lead time")
	}
	if f.Window != 1 || f.TXPK.Freq != 868.1 || f.TXPK.Datr != "SF9BW125" {
		t.Errorf("frame = %+v", f)
	}
	if f.TXPK.Tmst != up.Tmst+1_000_000 {
		t.Errorf("tmst = %d, want %d", f.TXPK.Tmst, up.Tmst+1_000_000)
	}
	if !f.TXPK.IPol {
		t.Error("downlink not inverted-polarity")
	}
	// The datagram is a decodable PULL_RESP echoing the token.
	p, err := ingest.DecodeDownstream(f.Datagram)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != ingest.PullResp || p.Token != f.Token {
		t.Errorf("datagram = %+v", p)
	}
	if c := s.Counters(); c.Queued != 1 || c.Sent != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestSchedulerFallsBackToRX2(t *testing.T) {
	s := NewScheduler(Config{})
	up := testUplink(7, 100)
	s.ObserveUplink(up, 100)
	// Enqueued after RX1 opened but before RX2.
	f := s.Enqueue(7, testPhy(t, 7), 101.5)
	if f == nil {
		t.Fatal("no frame inside RX2 lead time")
	}
	if f.Window != 2 || f.TXPK.Freq != DefaultRX2FreqMHz || f.TXPK.Datr != DefaultRX2Datr {
		t.Errorf("frame = %+v", f)
	}
	if f.TXPK.Tmst != up.Tmst+2_000_000 {
		t.Errorf("tmst = %d", f.TXPK.Tmst)
	}
}

func TestSchedulerWaitsForNextUplink(t *testing.T) {
	s := NewScheduler(Config{})
	s.ObserveUplink(testUplink(7, 100), 100)
	// Both windows already past: the command must wait.
	if f := s.Enqueue(7, testPhy(t, 7), 103); f != nil {
		t.Fatalf("emitted into a closed window: %+v", f)
	}
	if s.QueuedCount() != 1 {
		t.Fatal("command not queued")
	}
	f := s.ObserveUplink(testUplink(7, 200), 200.01)
	if f == nil || f.Window != 1 {
		t.Fatalf("next uplink did not emit RX1: %+v", f)
	}
	if s.QueuedCount() != 0 {
		t.Error("command still queued after emission")
	}
}

func TestSchedulerExactlyOneRX2Retry(t *testing.T) {
	s := NewScheduler(Config{})
	up := testUplink(7, 100)
	s.ObserveUplink(up, 100)
	f1 := s.Enqueue(7, testPhy(t, 7), 100.05)
	if f1 == nil || f1.Window != 1 {
		t.Fatalf("f1 = %+v", f1)
	}
	f2 := s.OnTxAck(up.EUI, f1.Token, ingest.TxErrTooLate, 100.2)
	if f2 == nil || f2.Window != 2 {
		t.Fatalf("no RX2 retry: %+v", f2)
	}
	if f2.TXPK.Freq != DefaultRX2FreqMHz || f2.TXPK.Tmst != up.Tmst+2_000_000 {
		t.Errorf("retry frame = %+v", f2)
	}
	// A second error is terminal: no third attempt.
	if f3 := s.OnTxAck(up.EUI, f2.Token, ingest.TxErrTxFreq, 100.4); f3 != nil {
		t.Fatalf("second retry emitted: %+v", f3)
	}
	c := s.Counters()
	if c.Sent != 2 || c.Retried != 1 || c.Failed != 1 || c.Acked != 0 {
		t.Errorf("counters = %+v", c)
	}
	errs := s.AckErrors()
	if len(errs) != 2 {
		t.Fatalf("ack errors = %+v", errs)
	}
	if errs[0].Error != ingest.TxErrTooLate && errs[1].Error != ingest.TxErrTooLate {
		t.Errorf("TOO_LATE not tallied: %+v", errs)
	}
}

func TestSchedulerAck(t *testing.T) {
	s := NewScheduler(Config{})
	up := testUplink(7, 100)
	s.ObserveUplink(up, 100)
	f := s.Enqueue(7, testPhy(t, 7), 100.05)
	if f == nil {
		t.Fatal("no frame")
	}
	if retry := s.OnTxAck(up.EUI, f.Token, "", 100.2); retry != nil {
		t.Fatalf("success produced a retry: %+v", retry)
	}
	c := s.Counters()
	if c.Acked != 1 || c.Failed != 0 || s.PendingCount() != 0 {
		t.Errorf("counters = %+v, pending %d", c, s.PendingCount())
	}
	// Unsolicited token: tallied per gateway, no crash, no retry.
	if f := s.OnTxAck(up.EUI, 0x7777, ingest.TxErrTxPower, 101); f != nil {
		t.Fatal("unsolicited ack produced a frame")
	}
}

func TestSchedulerDutyCycleBlocks(t *testing.T) {
	// A tiny duty cycle makes the second RX1 send on the same frequency
	// fall inside the first send's off period.
	s := NewScheduler(Config{DutyCycle: 0.001})
	phyA, phyB := testPhy(t, 1), testPhy(t, 2)
	s.ObserveUplink(testUplink(1, 100), 100)
	if f := s.Enqueue(1, phyA, 100.05); f == nil || f.Window != 1 {
		t.Fatalf("first send blocked: %+v", f)
	}
	// Device 2 uplinks on the same channel moments later: RX1 is duty
	// blocked, so the frame must fall back to RX2 (different frequency).
	s.ObserveUplink(testUplink(2, 100.2), 100.2)
	f := s.Enqueue(2, phyB, 100.25)
	if f == nil || f.Window != 2 {
		t.Fatalf("expected RX2 fallback, got %+v", f)
	}
	if c := s.Counters(); c.DutyBlocked != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestSchedulerExpireAndUnroutable(t *testing.T) {
	s := NewScheduler(Config{})
	s.ObserveUplink(testUplink(1, 100), 100)
	f := s.Enqueue(1, testPhy(t, 1), 100.05)
	if f == nil {
		t.Fatal("no frame")
	}
	// The frame is sent at RX1 open, 101 s; its TX_ACK is due within
	// DefaultAckTimeoutS (5 s).
	if n := s.Expire(105); n != 0 {
		t.Fatalf("expired too early: %d", n)
	}
	if n := s.Expire(107); n != 1 {
		t.Fatalf("expire = %d", n)
	}
	c := s.Counters()
	if c.Expired != 1 || c.Failed != 1 {
		t.Errorf("counters = %+v", c)
	}

	s.ObserveUplink(testUplink(2, 200), 200)
	f = s.Enqueue(2, testPhy(t, 2), 200.05)
	if f == nil {
		t.Fatal("no frame")
	}
	s.Unroutable(f.Token)
	s.Unroutable(f.Token) // idempotent
	c = s.Counters()
	if c.NoRoute != 1 || c.Failed != 2 || s.PendingCount() != 0 {
		t.Errorf("counters = %+v", c)
	}
}

// TestRX2FollowsRX1 pins that the scheduler and the simulated device
// derive RX2 from the same RX1 delay: at a 2 s RX1 delay (eflora-nsd
// -rx1-delay 2) the RX2 retry is timed 3 s after the uplink, and the
// device hears it in window 2.
func TestRX2FollowsRX1(t *testing.T) {
	s := NewScheduler(Config{RX1DelayS: 2})
	up := testUplink(7, 100)
	s.ObserveUplink(up, 100)
	f1 := s.Enqueue(7, testPhy(t, 7), 100.05)
	if f1 == nil || f1.Window != 1 || f1.TXPK.Tmst != up.Tmst+2_000_000 {
		t.Fatalf("RX1 frame = %+v", f1)
	}
	f2 := s.OnTxAck(up.EUI, f1.Token, ingest.TxErrTooLate, 100.2)
	if f2 == nil || f2.Window != 2 || f2.TXPK.Tmst != up.Tmst+3_000_000 {
		t.Fatalf("RX2 retry = %+v", f2)
	}
	d := testDevice(7)
	d.RX1DelayS = 2
	if w, err := d.Receive(&f2.TXPK, float64(f2.TXPK.Tmst)/1e6); err != nil || w != 2 {
		t.Fatalf("device receive = %d, %v; want window 2", w, err)
	}
}

func TestGatewaySimJudgesAndBlocks(t *testing.T) {
	var eng engine.Gateway
	eng.Reset(engine.Config{
		Capacity:   8,
		HalfDuplex: true,
		NoiseMW:    lora.DBmToMilliwatts(-120),
		Thresholds: engine.NewThresholds(),
	})
	g := &GatewaySim{Eng: &eng, ValidFreqMHz: []float64{868.1, DefaultRX2FreqMHz}}

	tx := ingest.TXPK{Tmst: 101_000_000, Freq: 868.1, Modu: "LORA", Datr: "SF9BW125", Codr: "4/5", IPol: true}
	tx.SetPayload(testPhy(t, 7))

	if _, _, errStr := g.Transmit(&tx, 102); errStr != ingest.TxErrTooLate {
		t.Errorf("late = %q", errStr)
	}
	if _, _, errStr := g.Transmit(&tx, 50); errStr != ingest.TxErrTooEarly {
		t.Errorf("early = %q", errStr)
	}
	bad := tx
	bad.Freq = 433.0
	if _, _, errStr := g.Transmit(&bad, 100.5); errStr != ingest.TxErrTxFreq {
		t.Errorf("bad freq = %q", errStr)
	}
	startS, endS, errStr := g.Transmit(&tx, 100.5)
	if errStr != ingest.TxErrNone || startS != 101 || endS <= startS {
		t.Fatalf("accept = %v %v %q", startS, endS, errStr)
	}
	// An uplink overlapping the downlink is lost to half duplex; one after
	// it locks. Each enters as a one-entry window cut at its own start.
	strong := []float64{lora.DBmToMilliwatts(-50)}
	var w engine.Window
	w.Reset(1)
	w.Append(1, lora.SF9, 0, startS+0.001, startS+0.05, 0)
	done := eng.Batch(&w, strong, startS+0.001, nil)
	if len(done) != 1 || done[0].Outcome != engine.OutcomeCapacity || eng.Counters.AckBlocked != 1 {
		t.Errorf("overlapping uplink: done = %+v, counters = %+v; want it blocked", done, eng.Counters)
	}
	w.Reset(2)
	w.Append(2, lora.SF9, 0, endS+0.1, endS+0.2, 0)
	if done = eng.Batch(&w, strong, endS+0.1, done[:0]); len(done) != 0 {
		t.Errorf("clear uplink: done = %+v, want it locked", done)
	}
}

func testDevice(devAddr uint32) *DeviceSim {
	return &DeviceSim{
		DevAddr:        devAddr,
		Plan:           lora.EU868(),
		RX1DelayS:      1,
		RX2FreqMHz:     DefaultRX2FreqMHz,
		RX2Datr:        DefaultRX2Datr,
		LastUplinkEndS: 100,
		UplinkFreqMHz:  868.1,
		UplinkDatr:     "SF9BW125",
		SF:             lora.SF9,
		TPdBm:          8,
		Channel:        0,
	}
}

func TestDeviceSimAppliesOnlyInWindow(t *testing.T) {
	d := testDevice(7)
	tx := ingest.TXPK{Freq: 868.1, Datr: "SF9BW125"}
	tx.SetPayload(testPhy(t, 7))

	// Outside any window: silently lost, nothing applied.
	if w, err := d.Receive(&tx, 100.5); w != 0 || err != nil {
		t.Fatalf("off-window receive = %d, %v", w, err)
	}
	if d.AppliedCount != 0 {
		t.Fatal("command applied outside window")
	}
	// Right time, wrong frequency: not received.
	badFreq := tx
	badFreq.Freq = 868.3
	if w, _ := d.Receive(&badFreq, 101); w != 0 {
		t.Fatal("wrong-frequency downlink received")
	}
	// RX1 lands and applies the assignment (DR5=SF7, power index 0, ch 1).
	w, err := d.Receive(&tx, 101)
	if err != nil || w != 1 {
		t.Fatalf("RX1 receive = %d, %v", w, err)
	}
	if d.SF != lora.SF7 || d.TPdBm != d.Plan.MaxTxPowerDBm || d.Channel != 1 {
		t.Errorf("applied = SF%d %v dBm ch%d", d.SF, d.TPdBm, d.Channel)
	}
	if d.AppliedCount != 1 || d.AppliedAtS != 101 {
		t.Errorf("applied count %d at %v", d.AppliedCount, d.AppliedAtS)
	}
	// A replayed frame counter is rejected.
	if _, err := d.Receive(&tx, 101); err == nil {
		t.Error("replayed FCntDown accepted")
	}
}

func TestDeviceSimRX2Window(t *testing.T) {
	d := testDevice(7)
	tx := ingest.TXPK{Freq: DefaultRX2FreqMHz, Datr: DefaultRX2Datr}
	tx.SetPayload(testPhy(t, 7))
	w, err := d.Receive(&tx, 102)
	if err != nil || w != 2 {
		t.Fatalf("RX2 receive = %d, %v", w, err)
	}
	if d.AppliedCount != 1 {
		t.Error("command not applied via RX2")
	}
	// Another device's frame inside the window is dropped by addressing.
	other := ingest.TXPK{Freq: DefaultRX2FreqMHz, Datr: DefaultRX2Datr}
	other.SetPayload(testPhy(t, 9))
	d2 := testDevice(7)
	if w, err := d2.Receive(&other, 102); w != 0 || err != nil {
		t.Fatalf("foreign frame = %d, %v", w, err)
	}
}
