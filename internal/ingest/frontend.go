package ingest

import (
	"sync"

	"eflora/internal/engine"
	"eflora/internal/lora"
)

// Frontend applies the shared receiver engine (engine.Gateway — the same
// state machine and Batch kernel the simulators drive) to live
// packet-forwarder traffic, giving the serving path the RF-contention
// accounting the dedup/delivery pipeline above it cannot see: how many
// uplinks arrived below sensitivity, overlapped a same-SF same-channel
// reception, or found every demodulator busy at each gateway.
//
// The forwarder only reports frames its gateway decoded, so the absolute
// numbers undercount the air's true contention; what the counters expose
// is the contention the reported frames experienced — the live
// counterpart of the simulator's CollisionLosses/CapacityDrops/
// SensitivityMisses, derived from identical physics.
//
// Each frame enters its gateway's engine as a one-entry window cut at
// the frame's start, so the engine completes every reception that ended
// by then and then runs the frame's own arrival.
//
// Timestamps: Observe takes the server's arrival clock. Per-gateway
// regressions (UDP reordering) are clamped to the gateway's high-water
// mark, a documented approximation that keeps the engine's nondecreasing-
// time contract without trusting the forwarder's wrapping µs counter.
type Frontend struct {
	cfg   FrontendConfig
	chTab []chEntry

	mu  sync.Mutex
	gws []feGateway
	tok int
	// win, rxMW and done are the engine calls' reused buffers.
	win  engine.Window
	rxMW [1]float64
	done []engine.Done
	// unknownChannel counts frames on frequencies outside the plan (fed to
	// the engine on pseudo-channel -1); badDatr counts unparsable
	// datarates (dropped).
	unknownChannel, badDatr int
}

// chEntry maps one uplink center frequency (kHz, rounded) to its plan
// channel index. The table is flat because regional plans carry at most
// a dozen uplink channels: a linear scan over eight bytes per entry is
// cheaper than hashing the frequency on every frame and keeps the lookup
// allocation-free on the Observe hot path.
type chEntry struct {
	khz int32
	idx int32
}

// feGateway is one gateway's receiver plus its clock high-water mark.
type feGateway struct {
	eng     engine.Gateway
	hiWater float64
}

// FrontendConfig parameterizes the live receiver frontend.
type FrontendConfig struct {
	// Plan maps uplink center frequencies to channel indices.
	Plan lora.Plan
	// NoiseDBm is the receiver noise floor (default -117, the model's).
	NoiseDBm float64
	// Capacity is the per-gateway demodulator limit (default 8, SX1301).
	Capacity int
	// CodingRate is assumed when an RXPK carries no parsable "codr"
	// (default 4/7, the paper's).
	CodingRate lora.CodingRate
}

func (c FrontendConfig) withDefaults() FrontendConfig {
	if c.NoiseDBm == 0 {
		c.NoiseDBm = -117
	}
	if c.Capacity <= 0 {
		c.Capacity = 8
	}
	if !c.CodingRate.Valid() {
		c.CodingRate = lora.CR47
	}
	return c
}

// FrontendCounters is the RF-contention accounting summed over gateways.
type FrontendCounters struct {
	CollisionLosses   int
	CapacityDrops     int
	SensitivityMisses int
	UnknownChannel    int
	BadDatr           int
}

// NewFrontend builds a frontend for the given plan.
func NewFrontend(cfg FrontendConfig) *Frontend {
	cfg = cfg.withDefaults()
	f := &Frontend{cfg: cfg, chTab: make([]chEntry, 0, len(cfg.Plan.Uplink))}
	for _, ch := range cfg.Plan.Uplink {
		f.chTab = append(f.chTab, chEntry{khz: int32(ch.CenterHz/1e3 + 0.5), idx: int32(ch.Index)})
	}
	return f
}

// channel resolves a center frequency (MHz) to its plan channel index.
//
//eflora:hotpath
func (f *Frontend) channel(freqMHz float64) (int, bool) {
	khz := int32(freqMHz*1e3 + 0.5)
	for _, e := range f.chTab {
		if e.khz == khz {
			return int(e.idx), true
		}
	}
	return 0, false
}

// captureDB is the power advantage a frame needs over every overlapping
// co-SF co-channel frame to survive: real radios capture.
const captureDB = 6

// engineConfig assembles the engine parameters once per new gateway.
func (f *Frontend) engineConfig() engine.Config {
	return engine.Config{
		Capture:    true,
		CaptureLin: lora.DBToLinear(captureDB),
		Capacity:   f.cfg.Capacity,
		NoiseMW:    lora.DBmToMilliwatts(f.cfg.NoiseDBm),
		Thresholds: engine.NewThresholds(),
	}
}

// gateway returns gateway gw's receiver, growing the table on first sight.
func (f *Frontend) gateway(gw int) *feGateway {
	for len(f.gws) <= gw {
		f.gws = append(f.gws, feGateway{})
		f.gws[len(f.gws)-1].eng.Reset(f.engineConfig())
	}
	return &f.gws[gw]
}

// Observe feeds one reported uplink frame through gateway gw's receiver
// at server arrival time atS (seconds, any fixed epoch) and reports
// whether it locked a demodulator there. ok is false when the frame's
// datarate is unparsable and nothing was fed. Safe for concurrent use.
//
// Warm calls are allocation-free (pinned by TestObserveAllocBudget): the
// datarate and coding-rate parsers work on string slices in place, the
// channel lookup scans the flat table, and the engines, the window and
// the Done buffer are arenas that grow to high-water and stay.
//
//eflora:hotpath
func (f *Frontend) Observe(gw int, rx *RXPK, atS float64) (locked, ok bool) {
	sf, bwHz, err := ParseDatr(rx.Datr)
	if err != nil {
		f.mu.Lock()
		f.badDatr++
		f.mu.Unlock()
		return false, false
	}
	cr := f.cfg.CodingRate
	if c, ok := ParseCodr(rx.Codr); ok {
		cr = c
	}
	size := rx.Size
	if size <= 0 {
		size = 1
	}
	toa := lora.TimeOnAir(size, sf, bwHz, cr)

	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.channel(rx.Freq)
	if !ok {
		ch = -1
		f.unknownChannel++
	}
	g := f.gateway(gw)
	start := atS
	if start < g.hiWater {
		start = g.hiWater
	}
	g.hiWater = start
	tok := f.tok
	f.tok++
	// Each frame gets a unique device token: a real device cannot overlap
	// itself on air, so the engine's same-device exemption never applies
	// to live traffic.
	f.win.Reset(tok)
	f.win.Append(tok, sf, ch, start, start+toa, 0)
	f.rxMW[0] = lora.DBmToMilliwatts(rx.RSSI)
	f.done = g.eng.Batch(&f.win, f.rxMW[:], start, f.done[:0])
	// A frame that locked has no Done yet: its verdict comes when it ends.
	for _, d := range f.done {
		if d.Tok == tok {
			return false, true
		}
	}
	return true, true
}

// Advance raises every gateway's clock to atS (if ahead of its last
// frame) and completes receptions that ended by then — the idle-time tick
// that settles verdicts when no traffic arrives.
func (f *Frontend) Advance(atS float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k := range f.gws {
		g := &f.gws[k]
		if atS > g.hiWater {
			g.hiWater = atS
		}
		f.done = g.eng.FinishUpTo(g.hiWater, f.done[:0])
	}
}

// Counters sums the contention accounting over all gateways, flushing
// every in-flight reception first so completed collisions are counted.
func (f *Frontend) Counters() FrontendCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := FrontendCounters{UnknownChannel: f.unknownChannel, BadDatr: f.badDatr}
	for k := range f.gws {
		g := &f.gws[k]
		f.done = g.eng.FinishUpTo(g.hiWater, f.done[:0])
		cc := g.eng.Counters
		c.CollisionLosses += cc.CollisionLosses
		c.CapacityDrops += cc.CapacityDrops
		c.SensitivityMisses += cc.SensitivityMisses
	}
	return c
}
