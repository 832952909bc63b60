package sim

import (
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"eflora/internal/engine"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/rng"
)

// streamMaxToA is the longest time-on-air in the allocation — the window
// sizes below bracket it so the equality tests cover windows smaller than
// a single transmission (every packet straddles a boundary) as well as
// windows holding many.
func streamMaxToA(p model.Params, a model.Allocation) float64 {
	max := 0.0
	for i := range a.SF {
		if toa := p.TimeOnAir(a.SF[i]); toa > max {
			max = toa
		}
	}
	return max
}

// goldenDigests reads testdata/golden_determinism.txt into a variant →
// digest map.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("testdata/golden_determinism.txt")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		out[name] = digest
	}
	return out
}

// TestStreamingMatchesBatch sweeps the window length: every golden
// variant — both collision rules, coinciding starts, per-device intervals
// — must reproduce its pinned digest (every per-device statistic,
// counter, trace record and SNR measurement) at windows below and above
// the longest time-on-air, at 60 s and at the derived default. The
// digests were recorded from the materialized whole-schedule simulator
// this streaming driver replaced.
func TestStreamingMatchesBatch(t *testing.T) {
	want := goldenDigests(t)
	for _, v := range goldenVariants() {
		maxToA := streamMaxToA(v.p, v.a)
		for _, win := range []float64{0.5 * maxToA, 3 * maxToA, 60, 0} {
			res, err := run(v.net, v.p, v.a, v.cfg.withDefaults(), win)
			if err != nil {
				t.Fatalf("%s window=%g: %v", v.name, win, err)
			}
			if got := resultDigest(res); got != want[v.name] {
				t.Errorf("%s window=%g: digest %s != golden %s", v.name, win, got, want[v.name])
			}
		}
	}
}

// TestStreamingWindowMemory pins the memory claim: at a sub-ToA window
// and at the derived one, every window buffer stays far below the total
// transmission count.
func TestStreamingWindowMemory(t *testing.T) {
	net, p, a := goldenNetwork(120, 4)
	for _, win := range []float64{0.5 * streamMaxToA(p, a), 0} {
		sc := &Scratch{}
		cfg := Config{PacketsPerDevice: 12, Seed: 7, Scratch: sc}.withDefaults()
		if _, err := run(net, p, a, cfg, win); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, m := range sc.packets {
			total += m
		}
		lim := total / 10
		if cap(sc.win.StartS) > lim || cap(sc.order) > lim || cap(sc.pend) > lim || cap(sc.sel) > lim*net.G() || cap(sc.vis) > lim*net.G() {
			t.Errorf("window=%g: buffers not O(window): cap(win)=%d cap(order)=%d cap(pend)=%d cap(sel)=%d cap(vis)=%d, total=%d",
				win, cap(sc.win.StartS), cap(sc.order), cap(sc.pend), cap(sc.sel), cap(sc.vis), total)
		}
	}
}

// TestFadeWindowSelectsTheVisible checks the raw-draw sensitivity
// decision against the exact received power, window by window: each
// gateway's selection must hold exactly the entries whose power
// tp·gain·RayleighPowerGain clears sensitivity, in token order and with
// those powers bit for bit; the misses must be the rest; and the draws
// must leave the RNG where the bulk fill leaves it. It runs each window
// once with the links' miss bounds and once with every bound at 0, so
// that every draw also takes the exact-power path.
func TestFadeWindowSelectsTheVisible(t *testing.T) {
	net, p, a := goldenNetwork(120, 4)
	g := net.G()
	sc := new(Scratch)
	if _, err := deviceSchedule(sc, net, p, a, 12); err != nil {
		t.Fatal(err)
	}
	gains := model.Gains(net, p)
	sens := engine.NewThresholds().SensitivityMW
	linkBounds(sc, gains, g, a.SF, &sens)
	bounds, noBounds := sc.bound, make([]uint64, len(sc.bound))
	r := rng.New(7)
	left := startSchedule(sc, r)
	window := deriveWindow(sc)
	var fading []float64
	var misses, visible int
	for j := 1; left > 0; j++ {
		left = sc.nextWindow(a, 0, float64(j)*window, left)
		w := &sc.win
		wn := w.Len()
		ref := *r
		fading = slices.Grow(fading[:0], wn*g)[:wn*g]
		ref.RayleighPowerGains(fading)
		for pass, bound := range [][]uint64{bounds, noBounds} {
			sc.bound = bound
			rr := *r
			gotMisses := sc.fadeWindow(&rr, g, &sens)
			if rr != ref {
				t.Fatalf("window %d: the raw draws left the RNG elsewhere than the bulk fill", j)
			}
			wantMisses := 0
			for k := 0; k < g; k++ {
				var want []int32
				for e := 0; e < wn; e++ {
					rx := w.TpMW[e] * gains[w.Dev[e]][k] * fading[e*g+k]
					if rx < sens[w.SF[e]-lora.SF7] {
						wantMisses++
						continue
					}
					want = append(want, int32(e))
					if got := sc.vis[k*wn+e]; math.Float64bits(got) != math.Float64bits(rx) {
						t.Fatalf("window %d gateway %d entry %d: power %v, want %v", j, k, e, got, rx)
					}
				}
				if got := sc.sel[k*wn : k*wn+sc.nsel[k]]; !slices.Equal(got, want) {
					t.Fatalf("window %d gateway %d: selection %v, want %v", j, k, got, want)
				}
				if pass == 0 {
					visible += len(want)
				}
			}
			if gotMisses != wantMisses {
				t.Fatalf("window %d: %d misses, want %d", j, gotMisses, wantMisses)
			}
			if pass == 0 {
				misses += gotMisses
			}
		}
		*r = ref
	}
	if misses == 0 || visible == 0 {
		t.Fatalf("%d misses and %d visible receptions: the network must exercise both", misses, visible)
	}
}

// TestStreamingScratchReuseIsStable re-runs on a warm scratch and checks
// the digest is stable — buffer reuse must not leak state across runs.
func TestStreamingScratchReuseIsStable(t *testing.T) {
	net, p, a := goldenNetwork(60, 2)
	sc := &Scratch{}
	cfg := Config{PacketsPerDevice: 8, Seed: 3, Trace: true, MeasureSNR: true,
		Scratch: sc}.withDefaults()
	first, err := run(net, p, a, cfg, 45)
	if err != nil {
		t.Fatal(err)
	}
	want := resultDigest(first)
	for i := 0; i < 3; i++ {
		res, err := run(net, p, a, cfg, 45)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res); got != want {
			t.Fatalf("run %d on warm scratch: digest %s != %s", i+2, got, want)
		}
	}
}

// BenchmarkRun measures Run on a warm scratch and asserts — every
// benchmark iteration — that the window buffers stay O(window), so a
// regression that silently re-materializes the schedule fails the
// benchmark rather than just slowing it down.
func BenchmarkRun(b *testing.B) {
	net, p, a := goldenNetwork(120, 4)
	sc := &Scratch{}
	cfg := Config{PacketsPerDevice: 12, Seed: 7, Scratch: sc}
	if _, err := Run(net, p, a, cfg); err != nil {
		b.Fatal(err)
	}
	total := 0
	for _, m := range sc.packets {
		total += m
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(net, p, a, cfg); err != nil {
			b.Fatal(err)
		}
		if cap(sc.win.StartS) > total/4 {
			b.Fatalf("window memory not O(window): cap(win)=%d total=%d", cap(sc.win.StartS), total)
		}
	}
}
