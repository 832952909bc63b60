package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"flag"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"eflora/internal/geo"
	"eflora/internal/golden"
	"eflora/internal/ingest"
	"eflora/internal/lora"
	"eflora/internal/lorawan"
	"eflora/internal/model"
	"eflora/internal/netserver"
	"eflora/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files")

// writeTestScenario creates a small deployment with a feasible allocation
// and returns the file path.
func writeTestScenario(t *testing.T, n int) string {
	t.Helper()
	p := model.DefaultParams()
	net := &model.Network{
		Gateways: []geo.Point{{X: 0, Y: 0}, {X: 1800, Y: 0}, {X: 0, Y: 1800}},
	}
	for i := 0; i < n; i++ {
		r := 200 + float64(i%9)*250
		ang := float64(i) * 2.39996
		net.Devices = append(net.Devices, geo.Point{X: r * math.Cos(ang), Y: r * math.Sin(ang)})
	}
	gains := model.Gains(net, p)
	a := model.NewAllocation(n, p.Plan)
	for i := 0; i < n; i++ {
		sf, ok := model.MinFeasibleSF(gains, i, p.Plan.MaxTxPowerDBm)
		if !ok {
			sf = lora.MaxSF
		}
		a.SF[i] = sf
		a.TPdBm[i] = p.Plan.MaxTxPowerDBm
		a.Channel[i] = i % p.Plan.NumChannels()
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := scenario.FromNetwork(net, &a, "nsd test").Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func metricValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

func TestRunReplayVerifies(t *testing.T) {
	path := writeTestScenario(t, 24)
	deltas := filepath.Join(t.TempDir(), "deltas.jsonl")
	var out bytes.Buffer
	err := run([]string{
		"-replay", "-scenario", path,
		"-packets", "4", "-seed", "7", "-shards", "4",
		"-http", "", "-deltas", deltas,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "VERIFY OK") {
		t.Errorf("replay output missing bit-exactness verdict:\n%s", s)
	}
	if !strings.Contains(s, "uplinks/sec") {
		t.Errorf("replay output missing throughput:\n%s", s)
	}
	if !strings.Contains(s, "re-allocation pass") {
		t.Errorf("replay output missing realloc pass:\n%s", s)
	}
}

func TestRunReplayAllocatesWhenScenarioHasNone(t *testing.T) {
	// Strip the allocation so run() must invoke the allocator itself.
	src := writeTestScenario(t, 12)
	f, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	sc.Allocation = nil
	path := filepath.Join(t.TempDir(), "noalloc.json")
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Write(w); err != nil {
		t.Fatal(err)
	}
	w.Close()

	var out bytes.Buffer
	err = run([]string{"-replay", "-scenario", path, "-packets", "2", "-shards", "2", "-http", "", "-realloc-every", "0"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "VERIFY OK") {
		t.Errorf("output:\n%s", out.String())
	}
}

// writeDriftScenario writes the 24-device test deployment with device 0
// sabotaged to SF12, so the model-side greedy has a better assignment
// once drift injection degrades that device's reported SNR.
func writeDriftScenario(t *testing.T) string {
	t.Helper()
	src := writeTestScenario(t, 24)
	f, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	sc.Allocation.SF[0] = int(lora.SF12)
	path := filepath.Join(t.TempDir(), "drifting.json")
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := sc.Write(w); err != nil {
		t.Fatal(err)
	}
	return path
}

// driftReplayArgs is the closed-loop replay flag set: device 0 drifts
// far enough that the re-allocation pass moves it and the downlink
// exchange delivers the move.
func driftReplayArgs(path string) []string {
	return []string{
		"-replay", "-scenario", path,
		"-packets", "20", "-seed", "7", "-shards", "4", "-http", "",
		"-drift-devices", "1", "-drift-snr", "50",
	}
}

// TestRunReplayReportGolden pins the closed-loop replay report line for
// line. Only the throughput and latency lines depend on the host and are
// dropped; every accounting line is deterministic for the flag set.
func TestRunReplayReportGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(driftReplayArgs(writeDriftScenario(t)), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var kept strings.Builder
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if strings.Contains(line, "uplinks/sec") || strings.Contains(line, "ingest latency") {
			continue
		}
		kept.WriteString(line)
	}
	golden.Check(t, "testdata/replay_report.golden", kept.String(), *update)
}

// TestRunReplayDownlinkExchange drives the closed loop end to end in
// replay mode: drift injection degrades one device's reported SNR, the
// re-allocation pass moves it, and the downlink exchange must show the
// simulated device applying the new assignment only after a PULL_RESP
// landed in one of its Class-A windows.
func TestRunReplayDownlinkExchange(t *testing.T) {
	var out bytes.Buffer
	err := run(driftReplayArgs(writeDriftScenario(t)), &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "VERIFY OK") {
		t.Errorf("drift injection broke bit-exact accounting:\n%s", s)
	}
	if strings.Contains(s, "moved 0 device(s)") {
		t.Fatalf("drift never triggered a reassignment:\n%s", s)
	}
	if !strings.Contains(s, "device 0 applied SF12->") ||
		!strings.Contains(s, "only after the PULL_RESP landed") {
		t.Errorf("no device demonstrably applied its reassignment:\n%s", s)
	}
	if !strings.Contains(s, "applied (RX1") {
		t.Errorf("downlink summary missing:\n%s", s)
	}
	if !strings.Contains(s, "half-duplex gateways blocked") {
		t.Errorf("half-duplex probe report missing:\n%s", s)
	}
}

func TestRunLiveSmoke(t *testing.T) {
	path := writeTestScenario(t, 8)
	var out bytes.Buffer
	err := run([]string{
		"-scenario", path, "-listen", "127.0.0.1:0", "-http", "",
		"-duration", "200ms", "-flush-every", "20ms", "-realloc-every", "0",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "served 0 uplinks") {
		t.Errorf("live summary missing:\n%s", out.String())
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-replay"}, &out); err == nil {
		t.Error("missing -scenario accepted")
	}
	if err := run([]string{"-scenario", "x", "-shards", "0"}, &out); err == nil {
		t.Error("-shards 0 accepted")
	}
	for _, every := range []string{"0", "-1s"} {
		if _, err := parseArgs([]string{"-scenario", "x", "-flush-every", every}); err == nil {
			t.Errorf("-flush-every %s accepted", every)
		}
	}
	if _, err := parseArgs([]string{"-scenario", "x", "-replay", "-state-dir", "d"}); err == nil {
		t.Error("-replay with -state-dir accepted")
	}
}

// udpExchange sends a datagram and returns the (ack) reply, or nil after
// the deadline — for traffic that must not be acknowledged.
func udpExchange(t *testing.T, conn net.Conn, pkt []byte, wantReply bool) []byte {
	t.Helper()
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	timeout := 2 * time.Second
	if !wantReply {
		timeout = 100 * time.Millisecond
	}
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	n, err := conn.Read(buf)
	if err != nil {
		if !wantReply {
			return nil
		}
		t.Fatalf("no ack: %v", err)
	}
	if !wantReply {
		t.Fatalf("unexpected reply % x", buf[:n])
	}
	return buf[:n]
}

func rxpkFor(phy []byte) ingest.RXPK {
	return ingest.RXPK{
		Tmst: 1000, Freq: 868.1, Stat: 1, Modu: "LORA",
		Datr: "SF7BW125", Codr: "4/7", RSSI: -80, LSNR: 5.5,
		Size: len(phy), Data: base64.StdEncoding.EncodeToString(phy),
	}
}

// TestDaemonUDPIngest drives a live daemon over real sockets: PULL_DATA
// keepalives, PUSH_DATA uplinks with a cross-gateway duplicate, a corrupt
// datagram, and the /metrics + /healthz endpoints.
func TestDaemonUDPIngest(t *testing.T) {
	cfg := config{
		scenarioPath: writeTestScenario(t, 8),
		listenAddr:   "127.0.0.1:0",
		httpAddr:     "127.0.0.1:0",
		shards:       2,
		queueDepth:   64,
		dedupWindowS: 0.05,
		flushEvery:   5 * time.Millisecond,
	}
	netw, a, err := loadScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(cfg, netw, a)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Serve(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("udp", d.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	eui1 := [8]byte{0xAA, 1, 2, 3, 4, 5, 6, 7}
	eui2 := [8]byte{0xBB, 1, 2, 3, 4, 5, 6, 7}

	// Keepalive round-trip.
	ack := udpExchange(t, conn, ingest.EncodePullData(0x1234, eui1), true)
	want := []byte{2, 0x34, 0x12, ingest.PullAck}
	if !bytes.Equal(ack, want) {
		t.Fatalf("PULL_ACK = % x, want % x", ack, want)
	}

	// Device 0 (DevAddr 1) sends FCnt 1; two gateways report it.
	dev := ingest.DeviceForAddr(ingest.AddrForIndex(0))
	phy1, err := lorawan.Encode(lorawan.Frame{
		MType: lorawan.UnconfirmedDataUp, DevAddr: dev.DevAddr, FCnt: 1, FPort: 1, Payload: []byte{1},
	}, dev.Keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, eui := range [][8]byte{eui1, eui2} {
		pkt, err := ingest.EncodePushData(uint16(i+1), eui, []ingest.RXPK{rxpkFor(phy1)})
		if err != nil {
			t.Fatal(err)
		}
		ack := udpExchange(t, conn, pkt, true)
		if len(ack) != 4 || ack[3] != ingest.PushAck {
			t.Fatalf("PUSH_ACK = % x", ack)
		}
	}

	// A second frame so the tracker sees a counter advance.
	phy2, err := lorawan.Encode(lorawan.Frame{
		MType: lorawan.UnconfirmedDataUp, DevAddr: dev.DevAddr, FCnt: 2, FPort: 1, Payload: []byte{2},
	}, dev.Keys)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := ingest.EncodePushData(9, eui1, []ingest.RXPK{rxpkFor(phy2)})
	if err != nil {
		t.Fatal(err)
	}
	udpExchange(t, conn, pkt, true)

	// Garbage datagram: counted as a parse error, never acknowledged.
	udpExchange(t, conn, []byte{1, 2, 3}, false)

	// Poll /metrics until the windows have flushed and counters settle.
	base := "http://" + d.HTTPAddr()
	deadline := time.Now().Add(5 * time.Second)
	var body string
	for {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body = string(b)
		delivered, _ := metricValue(body, "eflora_nsd_deliveries_total")
		if delivered >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never settled:\n%s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	checks := map[string]float64{
		"eflora_nsd_uplinks_total":      3,
		"eflora_nsd_deliveries_total":   2,
		"eflora_nsd_duplicates_total":   1,
		"eflora_nsd_rejected_total":     0,
		"eflora_nsd_parse_errors_total": 1,
		"eflora_nsd_gateways":           2,
		"eflora_nsd_tracked_devices":    1,
	}
	for name, want := range checks {
		got, ok := metricValue(body, name)
		if !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{
		`eflora_nsd_ingest_latency_seconds{quantile="0.99"}`,
		`eflora_nsd_shard_depth{shard="0"}`,
		`eflora_nsd_shard_pending{shard="1"}`,
		"eflora_nsd_dedup_hit_rate",
		"eflora_nsd_uptime_seconds",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("metrics missing %s:\n%s", name, body)
		}
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(b)) != "ok" {
		t.Errorf("healthz = %q", b)
	}
}

// TestDaemonRealloc drives enough lossy low-SNR traffic through the live
// daemon that the periodic control loop reassigns the device and appends
// a scenario delta.
func TestDaemonRealloc(t *testing.T) {
	deltas := filepath.Join(t.TempDir(), "deltas.jsonl")
	cfg := config{
		scenarioPath: writeTestScenario(t, 8),
		listenAddr:   "127.0.0.1:0",
		httpAddr:     "",
		shards:       2,
		queueDepth:   64,
		dedupWindowS: 0.02,
		flushEvery:   5 * time.Millisecond,
		reallocEvery: 50 * time.Millisecond,
		snrMarginDB:  1,
		minPRR:       0.9,
		minFrames:    4,
		deltasPath:   deltas,
	}
	netw, a, err := loadScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage device 3 so the model-side greedy has a better assignment
	// to move it to once the observed statistics flag it.
	a.SF[3] = lora.SF12
	d, err := newDaemon(cfg, netw, a)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Serve(ctx) }()

	conn, err := net.Dial("udp", d.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	eui := [8]byte{0xCC}
	dev := ingest.DeviceForAddr(ingest.AddrForIndex(3))
	// Every third counter missing (lossy) and SNR far below the SF12 floor.
	for fcnt := uint32(1); fcnt <= 18; fcnt++ {
		if fcnt%3 == 0 {
			continue
		}
		phy, err := lorawan.Encode(lorawan.Frame{
			MType: lorawan.UnconfirmedDataUp, DevAddr: dev.DevAddr, FCnt: fcnt, FPort: 1, Payload: []byte{byte(fcnt)},
		}, dev.Keys)
		if err != nil {
			t.Fatal(err)
		}
		rx := rxpkFor(phy)
		rx.LSNR = lora.SNRThresholdDB(lora.SF12) - 5
		pkt, err := ingest.EncodePushData(uint16(fcnt), eui, []ingest.RXPK{rx})
		if err != nil {
			t.Fatal(err)
		}
		udpExchange(t, conn, pkt, true)
		time.Sleep(2 * time.Millisecond) // let windows open and close distinctly
	}

	deadline := time.Now().Add(5 * time.Second)
	for d.reallocated() == 0 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := d.reallocated(); got == 0 {
		t.Fatal("control loop never reassigned the drifting device")
	}

	f, err := os.Open(deltas)
	if err != nil {
		t.Fatalf("delta file: %v", err)
	}
	defer f.Close()
	ds, err := scenario.ReadDeltas(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("no deltas appended")
	}
	found := false
	for _, delta := range ds {
		for _, c := range delta.Changes {
			if c.Device == 3 {
				found = true
				if c.SF == int(lora.SF12) && c.TPdBm == a.TPdBm[3] && c.Channel == a.Channel[3] {
					t.Errorf("delta kept the sabotaged assignment: %+v", c)
				}
			}
		}
	}
	if !found {
		t.Errorf("device 3 not in any delta: %+v", ds)
	}
}

// readDatagram reads one UDP datagram with a buffer large enough for a
// PULL_RESP, returning nil on deadline.
func readDatagram(t *testing.T, conn net.Conn, timeout time.Duration) []byte {
	t.Helper()
	buf := make([]byte, 2048)
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	n, err := conn.Read(buf)
	if err != nil {
		return nil
	}
	return append([]byte(nil), buf[:n]...)
}

// sendUplinkCollect writes a PUSH_DATA and reads until its PUSH_ACK,
// collecting any PULL_RESP the daemon interleaves (the control loop runs
// on its own timer, so a downlink can race the ack).
func sendUplinkCollect(t *testing.T, conn net.Conn, pkt []byte) [][]byte {
	t.Helper()
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	var resps [][]byte
	for {
		d := readDatagram(t, conn, 2*time.Second)
		if d == nil {
			t.Fatal("no PUSH_ACK")
		}
		if len(d) >= 4 && d[3] == ingest.PullResp {
			resps = append(resps, d)
			continue
		}
		if len(d) == 4 && d[3] == ingest.PushAck {
			return resps
		}
		t.Fatalf("unexpected datagram % x", d)
	}
}

// decodePullResp asserts a datagram is a PULL_RESP carrying a LinkADRReq
// for the device and returns the packet plus the parsed command.
func decodePullResp(t *testing.T, raw []byte, dev netserver.Device) (*ingest.Packet, lorawan.LinkADRReq) {
	t.Helper()
	pkt, err := ingest.DecodeDownstream(raw)
	if err != nil {
		t.Fatalf("PULL_RESP decode: %v", err)
	}
	if pkt.Kind != ingest.PullResp || pkt.TXPK == nil {
		t.Fatalf("not a PULL_RESP: %+v", pkt)
	}
	phy, err := pkt.TXPK.Payload()
	if err != nil {
		t.Fatal(err)
	}
	fr, err := lorawan.DecodeDownlink(phy, dev.Keys, 0)
	if err != nil {
		t.Fatalf("downlink frame: %v", err)
	}
	if fr.DevAddr != dev.DevAddr {
		t.Fatalf("DevAddr = %08x, want %08x", fr.DevAddr, dev.DevAddr)
	}
	if fr.FPort != 0 {
		t.Fatalf("FPort = %d, want 0 (MAC command)", fr.FPort)
	}
	cmd, err := lorawan.ParseLinkADRReq(fr.Payload)
	if err != nil {
		t.Fatalf("LinkADRReq: %v", err)
	}
	return pkt, cmd
}

// TestDaemonDownlinkDelivery closes the loop over real sockets: a
// PULL_DATA establishes the downlink route, lossy low-SNR uplinks make
// the control loop reassign the device, and the daemon must answer with
// a PULL_RESP in RX1, retry exactly once in RX2 after a TX_ACK error,
// and expose the outcome on /metrics.
func TestDaemonDownlinkDelivery(t *testing.T) {
	cfg := config{
		scenarioPath: writeTestScenario(t, 8),
		listenAddr:   "127.0.0.1:0",
		httpAddr:     "127.0.0.1:0",
		shards:       2,
		queueDepth:   64,
		dedupWindowS: 0.02,
		flushEvery:   5 * time.Millisecond,
		reallocEvery: 50 * time.Millisecond,
		snrMarginDB:  1,
		minPRR:       0.9,
		minFrames:    4,
	}
	netw, a, err := loadScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.SF[3] = lora.SF12
	d, err := newDaemon(cfg, netw, a)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Serve(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("udp", d.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The PULL_DATA keepalive registers this socket as the gateway's
	// downlink route.
	eui := [8]byte{0xDD, 1}
	ack := udpExchange(t, conn, ingest.EncodePullData(0x0101, eui), true)
	if len(ack) != 4 || ack[3] != ingest.PullAck {
		t.Fatalf("PULL_ACK = % x", ack)
	}

	dev := ingest.DeviceForAddr(ingest.AddrForIndex(3))
	var resps [][]byte
	for fcnt := uint32(1); fcnt <= 60 && len(resps) == 0; fcnt++ {
		if fcnt%3 == 0 {
			continue // lossy link: every third counter never arrives
		}
		phy, err := lorawan.Encode(lorawan.Frame{
			MType: lorawan.UnconfirmedDataUp, DevAddr: dev.DevAddr, FCnt: fcnt, FPort: 1, Payload: []byte{byte(fcnt)},
		}, dev.Keys)
		if err != nil {
			t.Fatal(err)
		}
		rx := rxpkFor(phy)
		rx.LSNR = lora.SNRThresholdDB(lora.SF12) - 5
		pkt, err := ingest.EncodePushData(uint16(fcnt), eui, []ingest.RXPK{rx})
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, sendUplinkCollect(t, conn, pkt)...)
		if len(resps) == 0 {
			if r := readDatagram(t, conn, 10*time.Millisecond); r != nil {
				resps = append(resps, r)
			}
		}
	}
	if len(resps) == 0 {
		t.Fatal("control loop never sent a PULL_RESP")
	}

	// RX1: the downlink mirrors the uplink's channel parameters and is
	// scheduled RX1Delay (1 s) after the uplink's gateway timestamp.
	pkt1, cmd := decodePullResp(t, resps[0], dev)
	rx := rxpkFor(nil)
	if got := pkt1.TXPK.Tmst; got != uint64(rx.Tmst)+1_000_000 {
		t.Errorf("RX1 tmst = %d, want %d", got, rx.Tmst+1_000_000)
	}
	if pkt1.TXPK.Freq != rx.Freq || pkt1.TXPK.Datr != rx.Datr {
		t.Errorf("RX1 channel = %g %s, want %g %s", pkt1.TXPK.Freq, pkt1.TXPK.Datr, rx.Freq, rx.Datr)
	}
	if !pkt1.TXPK.IPol {
		t.Error("downlink not polarity-inverted")
	}
	if sf, err := lorawan.SFForDataRate(cmd.DataRate); err != nil || sf == lora.SF12 {
		t.Errorf("LinkADRReq kept the sabotaged SF: DR %d (err %v)", cmd.DataRate, err)
	}

	// A TX_ACK error must trigger exactly one RX2 retry.
	nack, err := ingest.EncodeTxAck(pkt1.Token, eui, ingest.TxErrTooLate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(nack); err != nil {
		t.Fatal(err)
	}
	raw2 := readDatagram(t, conn, 2*time.Second)
	if raw2 == nil {
		t.Fatal("no RX2 retry after TX_ACK error")
	}
	pkt2, _ := decodePullResp(t, raw2, dev)
	if pkt2.Token == pkt1.Token {
		t.Error("retry reused the in-flight token")
	}
	if got := pkt2.TXPK.Tmst; got != uint64(rx.Tmst)+2_000_000 {
		t.Errorf("RX2 tmst = %d, want %d", got, rx.Tmst+2_000_000)
	}
	if pkt2.TXPK.Freq != 869.525 || pkt2.TXPK.Datr != "SF12BW125" {
		t.Errorf("RX2 channel = %g %s, want 869.525 SF12BW125", pkt2.TXPK.Freq, pkt2.TXPK.Datr)
	}
	okAck, err := ingest.EncodeTxAck(pkt2.Token, eui, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(okAck); err != nil {
		t.Fatal(err)
	}
	// The RX2 retry was the only second chance: a second error on it is
	// terminal and nothing else may be transmitted.
	if extra := readDatagram(t, conn, 150*time.Millisecond); extra != nil {
		t.Fatalf("unexpected third transmission % x", extra)
	}

	base := "http://" + d.HTTPAddr()
	deadline := time.Now().Add(5 * time.Second)
	var body string
	for {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body = string(b)
		if acked, _ := metricValue(body, "eflora_nsd_downlink_acked_total"); acked >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("downlink metrics never settled:\n%s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	checks := map[string]float64{
		"eflora_nsd_downlink_queued_total":   1,
		"eflora_nsd_downlink_sent_total":     2,
		"eflora_nsd_downlink_acked_total":    1,
		"eflora_nsd_downlink_retried_total":  1,
		"eflora_nsd_downlink_failed_total":   0,
		"eflora_nsd_gateway_routes":          1,
		"eflora_nsd_txack_unsolicited_total": 0,
	}
	for name, want := range checks {
		if got, ok := metricValue(body, name); !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{
		`eflora_nsd_txack_total{gateway="dd01000000000000",error="TOO_LATE"} 1`,
		`eflora_nsd_txack_total{gateway="dd01000000000000",error="NONE"} 1`,
	} {
		if !strings.Contains(body, name) {
			t.Errorf("metrics missing %s:\n%s", name, body)
		}
	}
}

func TestMetricValueHelper(t *testing.T) {
	body := "a 1\nb 2.5\n"
	if v, ok := metricValue(body, "b"); !ok || v != 2.5 {
		t.Errorf("metricValue = %v, %v", v, ok)
	}
	if _, ok := metricValue(body, "c"); ok {
		t.Error("missing metric found")
	}
}
