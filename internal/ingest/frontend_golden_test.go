package ingest

import (
	"flag"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"eflora/internal/golden"
	"eflora/internal/lora"
	"eflora/internal/rng"
)

var update = flag.Bool("update", false, "rewrite golden files")

// feFrame is one reported uplink of the frontend golden's stream: the
// gateway that reported it, the frame and its server arrival time.
type feFrame struct {
	gw  int
	rx  RXPK
	atS float64
}

// goldenFrames is the length of the frontend golden's stream.
const goldenFrames = 5000

// frontendStream builds a deterministic stream of live traffic over four
// gateways, mostly on EU868's three mandatory channels so same-SF
// same-channel overlaps are common. Besides single frames at every SF
// and a power range reaching below sensitivity, it mixes in
//
//   - bursts of twelve SF12 frames within 12 ms at gateway 0, more than
//     its eight demodulators,
//   - overlapping pairs at gateway 1 whose power ratio lies 3 or 10 dB
//     either way, on both sides of the 6 dB capture margin,
//   - clock regressions: arrival times up to 0.3 s behind the stream,
//   - frames on frequencies outside the plan, and
//   - unparsable datarates.
func frontendStream() []feFrame {
	r := rng.New(28)
	up := lora.EU868().Uplink
	codrs := []string{"4/5", "4/7", "", "4/9"}
	badDatrs := []string{"SF13BW125", "garbage", "SF7BW"}
	frames := make([]feFrame, 0, goldenFrames+12)
	t := 0.0
	for len(frames) < goldenFrames {
		t += r.ExpFloat64() * 0.05
		switch u := r.Intn(100); {
		case u < 1:
			for k := 0; k < 12; k++ {
				rx := RXPK{Freq: up[k%len(up)].CenterHz / 1e6, Datr: "SF12BW125", Codr: "4/5",
					RSSI: -70 - 20*r.Float64(), Size: 20}
				frames = append(frames, feFrame{gw: 0, rx: rx, atS: t + 0.001*float64(k)})
			}
		case u < 6:
			rssi := -100 + 20*r.Float64()
			ratio := []float64{-10, -3, 3, 10}[r.Intn(4)]
			a := RXPK{Freq: up[0].CenterHz / 1e6, Datr: "SF9BW125", Codr: "4/5", RSSI: rssi, Size: 16}
			b := a
			b.RSSI += ratio
			frames = append(frames, feFrame{gw: 1, rx: a, atS: t}, feFrame{gw: 1, rx: b, atS: t + 0.01})
		default:
			ch := r.Intn(3)
			if r.Intn(5) == 0 {
				ch = r.Intn(len(up))
			}
			rx := RXPK{
				Freq: up[ch].CenterHz / 1e6,
				Datr: Datr(lora.SF7+lora.SF(r.Intn(6)), 125e3),
				Codr: codrs[r.Intn(len(codrs))],
				RSSI: -140 + 80*r.Float64(),
				Size: r.Intn(60),
			}
			if r.Intn(50) == 0 {
				rx.Freq = 915.0
			}
			if r.Intn(100) == 0 {
				rx.Datr = badDatrs[r.Intn(len(badDatrs))]
			}
			at := t
			if r.Intn(20) == 0 {
				at -= 0.3 * r.Float64()
			}
			frames = append(frames, feFrame{gw: r.Intn(4), rx: rx, atS: at})
		}
	}
	return frames[:goldenFrames]
}

// TestFrontendGolden pins the frontend's per-frame lock decisions and its
// counters over frontendStream, with an idle-time Advance every 250
// frames and a Counters read every 1000, in
// testdata/frontend_golden.txt. Each frame renders as L (locked a
// demodulator), . (fed to the engine but did not lock) or x (datarate
// rejected, nothing fed).
func TestFrontendGolden(t *testing.T) {
	frames := frontendStream()
	f := NewFrontend(FrontendConfig{Plan: lora.EU868()})
	var b, row strings.Builder
	fmt.Fprintf(&b, "frames %d\n", len(frames))
	counters := func(label string) {
		c := f.Counters()
		fmt.Fprintf(&b, "%s collisions=%d capacity=%d sensitivity=%d unknown_channel=%d bad_datr=%d\n",
			label, c.CollisionLosses, c.CapacityDrops, c.SensitivityMisses, c.UnknownChannel, c.BadDatr)
	}
	hiWater := map[int]float64{}
	regressions, locks := 0, 0
	for n, fr := range frames {
		if fr.atS < hiWater[fr.gw] {
			regressions++
		}
		hiWater[fr.gw] = max(hiWater[fr.gw], fr.atS)
		locked, ok := f.Observe(fr.gw, &fr.rx, fr.atS)
		switch {
		case !ok:
			row.WriteByte('x')
		case locked:
			locks++
			row.WriteByte('L')
		default:
			row.WriteByte('.')
		}
		if (n+1)%100 == 0 || n+1 == len(frames) {
			fmt.Fprintf(&b, "%04d %s\n", n/100*100, row.String())
			row.Reset()
		}
		if (n+1)%250 == 0 {
			f.Advance(fr.atS)
		}
		if (n+1)%1000 == 0 {
			counters(fmt.Sprintf("counters@%d", n+1))
		}
	}
	f.Advance(frames[len(frames)-1].atS + 10)
	counters("final")
	fmt.Fprintf(&b, "locked %d\n", locks)

	c := f.Counters()
	if c.CollisionLosses == 0 || c.CapacityDrops == 0 || c.SensitivityMisses == 0 ||
		c.UnknownChannel == 0 || c.BadDatr == 0 || regressions == 0 {
		t.Fatalf("stream misses a case: counters %+v, %d clock regressions", c, regressions)
	}
	golden.Check(t, "testdata/frontend_golden.txt", b.String(), *update)
}

// TestFrontendConcurrentUse exercises the concurrency eflora-nsd relies
// on: one goroutine feeds frontendStream through Observe, as the UDP
// reader does, while one calls Advance(0), as the flush ticker does, and
// one calls Counters, as /metrics does, until the stream ends. Neither
// flush can change a verdict, so every lock decision and the final
// counters must equal a sequential run's. Run it under -race.
func TestFrontendConcurrentUse(t *testing.T) {
	frames := frontendStream()
	run := func(concurrent bool) ([]bool, FrontendCounters) {
		f := NewFrontend(FrontendConfig{Plan: lora.EU868()})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if concurrent {
			for _, poll := range []func(){func() { f.Advance(0) }, func() { f.Counters() }} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
							poll()
							runtime.Gosched()
						}
					}
				}()
			}
		}
		locks := make([]bool, len(frames))
		for n, fr := range frames {
			locks[n], _ = f.Observe(fr.gw, &fr.rx, fr.atS)
		}
		close(stop)
		wg.Wait()
		return locks, f.Counters()
	}
	wantLocks, want := run(false)
	gotLocks, got := run(true)
	if got != want {
		t.Errorf("concurrent counters %+v, sequential %+v", got, want)
	}
	if !slices.Equal(gotLocks, wantLocks) {
		t.Error("concurrent lock decisions differ from the sequential run's")
	}
}
