package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"eflora/internal/core"
	"eflora/internal/ingest"
	"eflora/internal/lorawan"
	"eflora/internal/model"
)

// TestMain doubles as the daemon-under-test entry point: when the helper
// env var is set, the test binary IS eflora-nsd, so the kill-and-recover
// test can run a real daemon process it is allowed to SIGKILL.
func TestMain(m *testing.M) {
	if os.Getenv("EFLORA_NSD_HELPER") == "1" {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "eflora-nsd helper:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestParseArgsSnapshotIntervalPointerZero pins the -snapshot-interval
// flag: an absent flag means the 30 s default cadence, an explicit zero
// means WAL-only (Serve starts no snapshot ticker for a value <= 0), and
// any other value is taken as given.
func TestParseArgsSnapshotIntervalPointerZero(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want time.Duration
	}{
		{nil, 30 * time.Second},
		{[]string{"-snapshot-interval", "0"}, 0},
		{[]string{"-snapshot-interval", "5s"}, 5 * time.Second},
	} {
		cfg, err := parseArgs(append([]string{"-scenario", "x"}, tc.args...))
		if err != nil {
			t.Fatal(err)
		}
		if cfg.snapshotInterval != tc.want {
			t.Errorf("%v: snapshot interval %v, want %v", tc.args, cfg.snapshotInterval, tc.want)
		}
	}
}

// startServer builds a server through the daemon's own constructor
// (recovering from cfg.stateDir when set) and starts its pool.
func startServer(t *testing.T, cfg config, netw *core.Network, a model.Allocation) *server {
	t.Helper()
	s, err := newServer(cfg, netw, a)
	if err != nil {
		t.Fatal(err)
	}
	s.pool.Start()
	return s
}

// stepMoves runs the server's control step and requires it to move at
// least one device.
func stepMoves(t *testing.T, s *server, nowS float64) {
	t.Helper()
	delta, _, err := s.reallocStep(nowS)
	if err != nil {
		t.Fatal(err)
	}
	if delta == nil || len(delta.Changes) == 0 {
		t.Fatalf("control step at %gs moved no device", nowS)
	}
}

// TestCrashDrill proves the durability contract on the daemon's own
// server. An oracle runs the drift trace uninterrupted, with a control
// step mid-trace and one at the end. A crash run ingests up to the cut,
// takes the mid-trace step through reallocStep (WAL append, then the
// LinkADRReq) and is abandoned with no final snapshot and no store close.
// A restart through newServer on the same directory must serve the
// pre-crash allocation, move count and downlink frame counters. With a
// snapshot before the step it must also resume with the same dedup and
// tracker state, and finish the trace bit-exact against the oracle:
// counters and state digest, frame counters included. Without one
// (WAL-only, or a kill before the first periodic snapshot) the WAL tail
// alone restores what it recorded.
func TestCrashDrill(t *testing.T) {
	for _, tc := range []struct {
		name     string
		snapshot bool
	}{{"snapshot", true}, {"wal-only", false}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseArgs(driftReplayArgs(writeDriftScenario(t)))
			if err != nil {
				t.Fatal(err)
			}
			netw, a, err := loadScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := replayTrace(cfg, netw, a)
			if err != nil {
				t.Fatal(err)
			}
			n, endS := len(rt.Uplinks), rt.SimTimeS
			cut, midS := n/2, endS/2

			oracle := startServer(t, cfg, netw, a)
			oracle.ingestTrace(rt, 0, cut)
			stepMoves(t, oracle, midS)
			oracle.ingestTrace(rt, cut, n)
			oracle.pool.Flush()
			if _, _, err := oracle.reallocStep(endS); err != nil {
				t.Fatal(err)
			}
			want, wantCounters := oracle.exportState(endS), oracle.pool.Counters()
			oracle.pool.Close()

			// parseArgs refuses -state-dir with -replay; the drill sets it on
			// the parsed config to reach the constructor's recovery.
			cfg.stateDir = filepath.Join(t.TempDir(), "state")
			crashed := startServer(t, cfg, netw, a)
			crashed.ingestTrace(rt, 0, cut)
			if tc.snapshot {
				// Snapshot BEFORE the step, so its delta lives only in the WAL.
				if err := crashed.takeSnapshot(midS); err != nil {
					t.Fatal(err)
				}
			}
			stepMoves(t, crashed, midS)
			pre := crashed.exportState(midS)
			crashed.pool.Close()

			restarted := startServer(t, cfg, netw, a)
			defer restarted.store.Close()
			defer restarted.pool.Close()
			if got := restarted.store.Metrics().RecoveryReplayed; got != 1 {
				t.Fatalf("recovery replayed %d WAL record(s), want 1", got)
			}
			got := restarted.exportState(midS)
			if !reflect.DeepEqual(got.Alloc, pre.Alloc) {
				t.Errorf("recovered allocation differs from the pre-crash one:\n got %+v\nwant %+v", got.Alloc, pre.Alloc)
			}
			if got.Reassigned != pre.Reassigned {
				t.Errorf("recovered Reassigned = %d, want %d", got.Reassigned, pre.Reassigned)
			}
			if !reflect.DeepEqual(got.FCntDown, pre.FCntDown) {
				t.Errorf("recovered FCntDown = %+v, want %+v", got.FCntDown, pre.FCntDown)
			}
			if !tc.snapshot {
				return
			}
			if gd, pd := got.Digest(), pre.Digest(); gd != pd {
				t.Errorf("recovered state digest %s != pre-crash %s", gd, pd)
			}
			restarted.ingestTrace(rt, cut, n)
			restarted.pool.Flush()
			if _, _, err := restarted.reallocStep(endS); err != nil {
				t.Fatal(err)
			}
			final, finalCounters := restarted.exportState(endS), restarted.pool.Counters()
			if finalCounters != wantCounters {
				t.Errorf("post-crash counters %+v diverge from oracle %+v", finalCounters, wantCounters)
			}
			if fd, wd := final.Digest(), want.Digest(); fd != wd {
				t.Errorf("post-crash state digest %s != oracle %s\nFCntDown %+v, oracle %+v", fd, wd, final.FCntDown, want.FCntDown)
			}
		})
	}
}

// helperDaemon starts this test binary as a real eflora-nsd process and
// parses the bound addresses off its banner line.
func helperDaemon(t *testing.T, args ...string) (cmd *exec.Cmd, udpAddr, httpAddr string) {
	t.Helper()
	cmd = exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EFLORA_NSD_HELPER=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatalf("daemon banner: %v (got %q)", err, line)
	}
	// "eflora-nsd: N devices, S shards, udp HOST:PORT, http HOST:PORT"
	if i := strings.Index(line, "udp "); i >= 0 {
		udpAddr = strings.TrimSpace(strings.SplitN(line[i+4:], ",", 2)[0])
	}
	if i := strings.Index(line, "http "); i >= 0 {
		httpAddr = strings.TrimSpace(strings.TrimSuffix(line[i+5:], "\n"))
	}
	if udpAddr == "" || httpAddr == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatalf("could not parse addresses from banner %q", line)
	}
	go func() { _, _ = bufio.NewReader(stdout).WriteTo(os.Stderr) }() // drain
	return cmd, udpAddr, httpAddr
}

// pollMetrics fetches /metrics until pred is satisfied or the deadline
// passes, returning the last body either way.
func pollMetrics(t *testing.T, httpAddr string, pred func(body string) bool) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var body string
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + httpAddr + "/metrics")
		if err == nil {
			b := new(strings.Builder)
			_, _ = bufio.NewReader(resp.Body).WriteTo(b)
			resp.Body.Close()
			body = b.String()
			if pred(body) {
				return body
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("metrics never satisfied predicate; last body:\n%s", body)
	return ""
}

// TestDaemonKillRecover is the kill -9 end-to-end: a real daemon process
// ingests uplinks over real sockets, snapshots them, dies by SIGKILL,
// and a second process on the same state directory must resume with the
// pre-kill counters — then also account an unsolicited LinkADRAns and
// shut down gracefully with a final snapshot.
func TestDaemonKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	scn := writeTestScenario(t, 8)
	stateDir := filepath.Join(t.TempDir(), "state")
	daemonArgs := []string{
		"-scenario", scn, "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-shards", "2", "-state-dir", stateDir,
		"-snapshot-interval", "50ms", "-flush-every", "10ms",
		"-dedup-window", "0.02", "-realloc-every", "1h",
	}
	cmd, udpAddr, httpAddr := helperDaemon(t, daemonArgs...)
	killed := false
	defer func() {
		if !killed {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()

	conn, err := net.Dial("udp", udpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	eui1 := [8]byte{0xAA, 1, 2, 3, 4, 5, 6, 7}
	eui2 := [8]byte{0xBB, 1, 2, 3, 4, 5, 6, 7}
	dev := ingest.DeviceForAddr(ingest.AddrForIndex(0))
	// FCnt 1 seen by two gateways (one duplicate) plus FCnt 2: the same
	// 3/2/1 uplink/delivery/duplicate shape TestDaemonUDPIngest pins.
	phy1, err := lorawan.Encode(lorawan.Frame{
		MType: lorawan.UnconfirmedDataUp, DevAddr: dev.DevAddr, FCnt: 1, FPort: 1, Payload: []byte{1},
	}, dev.Keys)
	if err != nil {
		t.Fatal(err)
	}
	phy2, err := lorawan.Encode(lorawan.Frame{
		MType: lorawan.UnconfirmedDataUp, DevAddr: dev.DevAddr, FCnt: 2, FPort: 1, Payload: []byte{2},
	}, dev.Keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, send := range []struct {
		eui [8]byte
		phy []byte
	}{{eui1, phy1}, {eui2, phy1}, {eui1, phy2}} {
		pkt, err := ingest.EncodePushData(uint16(i+1), send.eui, []ingest.RXPK{rxpkFor(send.phy)})
		if err != nil {
			t.Fatal(err)
		}
		udpExchange(t, conn, pkt, true)
	}

	// Wait until the deliveries landed, then until a snapshot taken AFTER
	// that moment exists — that snapshot provably covers them.
	body := pollMetrics(t, httpAddr, func(b string) bool {
		d, _ := metricValue(b, "eflora_nsd_deliveries_total")
		return d >= 2
	})
	snaps0, _ := metricValue(body, "eflora_nsd_state_snapshots_total")
	pollMetrics(t, httpAddr, func(b string) bool {
		s, _ := metricValue(b, "eflora_nsd_state_snapshots_total")
		return s > snaps0
	})

	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no final snapshot
		t.Fatal(err)
	}
	_ = cmd.Wait()
	killed = true

	// Restart on the same state directory: the pre-kill accounting must be
	// back, bit-exact, from disk alone.
	cmd2, udpAddr2, httpAddr2 := helperDaemon(t, daemonArgs...)
	terminated := false
	defer func() {
		if !terminated {
			_ = cmd2.Process.Kill()
			_ = cmd2.Wait()
		}
	}()
	body = pollMetrics(t, httpAddr2, func(b string) bool {
		u, ok := metricValue(b, "eflora_nsd_uplinks_total")
		return ok && u == 3
	})
	for name, want := range map[string]float64{
		"eflora_nsd_uplinks_total":           3,
		"eflora_nsd_deliveries_total":        2,
		"eflora_nsd_duplicates_total":        1,
		"eflora_nsd_tracked_devices":         1,
		"eflora_nsd_state_wal_appends_total": 0,
	} {
		if got, ok := metricValue(body, name); !ok || got != want {
			t.Errorf("after recovery %s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	for _, name := range []string{
		"eflora_nsd_state_wal_seq",
		"eflora_nsd_state_recovery_replayed_total",
		"eflora_nsd_state_recovery_snapshots_skipped_total",
		"eflora_nsd_state_recovery_discarded_bytes_total",
		"eflora_nsd_state_snapshot_bytes",
	} {
		if _, ok := metricValue(body, name); !ok {
			t.Errorf("recovered daemon metrics missing %s", name)
		}
	}

	// An unsolicited LinkADRAns on FPort 0 (no LinkADRReq is pending) must
	// be parsed, attributed, and counted — the MAC uplink path survives
	// recovery too.
	conn2, err := net.Dial("udp", udpAddr2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	ansPhy, err := lorawan.Encode(lorawan.Frame{
		MType: lorawan.UnconfirmedDataUp, DevAddr: dev.DevAddr, FCnt: 10, FPort: 0,
		Payload: lorawan.LinkADRAns{ChannelACK: true, DataRateACK: true, PowerACK: true}.Encode(),
	}, dev.Keys)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := ingest.EncodePushData(42, eui1, []ingest.RXPK{rxpkFor(ansPhy)})
	if err != nil {
		t.Fatal(err)
	}
	udpExchange(t, conn2, pkt, true)
	pollMetrics(t, httpAddr2, func(b string) bool {
		v, _ := metricValue(b, "eflora_nsd_linkadr_unsolicited_total")
		return v >= 1
	})

	// Graceful SIGTERM: the daemon writes a final snapshot and exits 0.
	entriesBefore := countSnapshots(t, stateDir)
	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
	terminated = true
	if after := countSnapshots(t, stateDir); after < 1 || after < entriesBefore {
		t.Errorf("snapshots after graceful shutdown = %d (was %d)", after, entriesBefore)
	}
}

func countSnapshots(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snap-") && strings.HasSuffix(e.Name(), ".efss") {
			n++
		}
	}
	return n
}
