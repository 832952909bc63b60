package ingest

import (
	"fmt"
	"sort"

	"eflora/internal/lora"
	"eflora/internal/lorawan"
	"eflora/internal/model"
	"eflora/internal/netserver"
	"eflora/internal/rng"
	"eflora/internal/sim"
)

// ReplayConfig controls the load generator.
type ReplayConfig struct {
	// Packets is the simulated reporting periods per device (default 20).
	Packets int
	// Seed drives the simulation and all synthetic traffic decisions.
	Seed uint64
	// DedupWindowS must match the ingesting pool's window (default 0.2).
	DedupWindowS float64
	// DriftDevices injects link drift: the first DriftDevices devices
	// report SNRs DriftSNRdB below their true link budget, so the online
	// re-allocator sees them as drifting. Only the reported metadata is
	// degraded — delivery accounting stays analytically exact.
	DriftDevices int
	DriftSNRdB   float64
}

func (c ReplayConfig) withDefaults() ReplayConfig {
	if c.Packets <= 0 {
		c.Packets = 20
	}
	if c.DedupWindowS <= 0 {
		c.DedupWindowS = 0.2
	}
	return c
}

// The synthetic traffic mix BuildReplay draws around each delivered frame.
const (
	// extraCopyProb is the chance each plausible secondary gateway also
	// reports a delivered frame, inside the dedup window.
	extraCopyProb = 0.35
	// outOfOrderProb is the chance an extra copy carries a timestamp
	// slightly *before* the primary copy while arriving after it —
	// exercising out-of-order ingestion.
	outOfOrderProb = 0.1
	// lateCopyProb is the chance a delivered frame gets one more gateway
	// copy after its window closed — the late-duplicate path.
	lateCopyProb = 0.05
	// staleReplayProb is the chance a device's previous frame is re-sent
	// after a newer one was accepted — the replay-rejection path.
	staleReplayProb = 0.03
)

// Replay is a synthesized gateway-traffic trace with analytically known
// ingest accounting: dispatching Uplinks in order into any pool (then
// flushing) must produce exactly Expected, independent of shard count —
// the bit-exactness oracle for the daemon's load-generator mode.
type Replay struct {
	// Devices are the provisioned end devices (DevAddr = index+1).
	Devices []netserver.Device
	// Uplinks is the traffic in arrival order (timestamps may be locally
	// out of order on purpose).
	Uplinks []netserver.Uplink
	// Expected is the exact accounting any order-preserving ingest of
	// Uplinks must report after a final flush.
	Expected netserver.Counters
	// SimTimeS is the simulated horizon; DedupWindowS echoes the config.
	SimTimeS     float64
	DedupWindowS float64
	// LastUp records each device's final delivered uplink (Gateway -1 for
	// devices the network never heard) — the reception context a Class-A
	// downlink exchange schedules against.
	LastUp []ReplayLastUplink
}

// ReplayLastUplink is one device's most recent delivered transmission.
type ReplayLastUplink struct {
	// EndS is when the transmission left the air; Gateway the decoding
	// gateway (-1 when the device was never delivered).
	EndS    float64
	Gateway int
}

// DeviceForAddr derives a device with deterministic session keys from its
// address (splitmix64 stream — stable across runs and processes).
func DeviceForAddr(addr uint32) netserver.Device {
	d := netserver.Device{DevAddr: addr}
	state := uint64(addr)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := 0; i < 16; i += 8 {
		putU64(d.Keys.NwkSKey[i:], next())
		putU64(d.Keys.AppSKey[i:], next())
	}
	return d
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// ProvisionDevices derives the device set for an n-device scenario.
func ProvisionDevices(n int) []netserver.Device {
	out := make([]netserver.Device, n)
	for i := range out {
		out[i] = DeviceForAddr(AddrForIndex(i))
	}
	return out
}

// deliveredTx is one frame the simulator delivered, with the metadata the
// generator needs to synthesize gateway copies.
type deliveredTx struct {
	fcnt uint32
	endS float64
	gw   int
}

// replayUplink orders synthesized traffic by arrival, which deliberately
// differs from the carried timestamp for out-of-order copies.
type replayUplink struct {
	arrivalS float64
	seq      int
	up       netserver.Uplink
}

// BuildReplay runs the packet simulator over the deployment and converts
// its delivery trace into a gateway-traffic stream: every delivered
// packet becomes a PUSH-style uplink from its decoding gateway, plausible
// secondary gateways contribute dedup copies, and deterministic fractions
// of late copies, out-of-order timestamps and stale replays exercise the
// server's full accounting surface.
func BuildReplay(net *model.Network, p model.Params, a model.Allocation, cfg ReplayConfig) (*Replay, error) {
	cfg = cfg.withDefaults()
	res, err := sim.Run(net, p, a, sim.Config{
		PacketsPerDevice: cfg.Packets,
		Seed:             cfg.Seed,
		Trace:            true,
	})
	if err != nil {
		return nil, err
	}
	n, g := net.N(), net.G()
	devices := ProvisionDevices(n)
	gains := model.Gains(net, p)

	// Mean SNR per (device, gateway) — the fading-free link budget the
	// synthetic per-copy SNR jitters around.
	meanSNR := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, g)
		for k := 0; k < g; k++ {
			row[k] = a.TPdBm[i] + lora.LinearToDB(gains[i][k]) - p.NoiseDBm
		}
		meanSNR[i] = row
	}
	toa := make([]float64, n)
	for i := 0; i < n; i++ {
		toa[i] = p.TimeOnAir(a.SF[i])
	}

	// Pass 1: per-device attempt counters over the time-ordered trace
	// assign FCnts (the counter advances on every transmission, heard or
	// not — that is exactly what gives the PRR-from-FCnt-gap statistics
	// something to measure).
	attempts := make([]uint32, n)
	delivered := make([][]deliveredTx, n)
	for _, rec := range res.Trace {
		attempts[rec.Device]++
		if rec.Outcome != sim.OutcomeDelivered {
			continue
		}
		delivered[rec.Device] = append(delivered[rec.Device], deliveredTx{
			fcnt: attempts[rec.Device],
			endS: rec.StartS + toa[rec.Device],
			gw:   rec.Gateway,
		})
	}

	// Pass 2: synthesize the gateway copies per device with a per-device
	// RNG, so generation is deterministic and device-order independent.
	rp := &Replay{
		Devices:      devices,
		SimTimeS:     res.SimTimeS,
		DedupWindowS: cfg.DedupWindowS,
		LastUp:       make([]ReplayLastUplink, n),
	}
	for i := range rp.LastUp {
		rp.LastUp[i] = ReplayLastUplink{EndS: -1, Gateway: -1}
		if frames := delivered[i]; len(frames) > 0 {
			last := frames[len(frames)-1]
			rp.LastUp[i] = ReplayLastUplink{EndS: last.endS, Gateway: last.gw}
		}
	}
	var stream []replayUplink
	add := func(arrivalS float64, up netserver.Uplink) {
		stream = append(stream, replayUplink{arrivalS: arrivalS, seq: len(stream), up: up})
	}
	appPayload := make([]byte, p.AppPayloadBytes)
	window := cfg.DedupWindowS
	for i := 0; i < n; i++ {
		r := rng.New(cfg.Seed ^ (uint64(AddrForIndex(i)) * 0x517CC1B727220A95))
		frames := delivered[i]
		phys := make([][]byte, len(frames))
		for j, dtx := range frames {
			for b := range appPayload {
				appPayload[b] = byte(dtx.fcnt) + byte(b)
			}
			phy, err := lorawan.Encode(lorawan.Frame{
				MType:   lorawan.UnconfirmedDataUp,
				DevAddr: devices[i].DevAddr,
				FCnt:    dtx.fcnt,
				FPort:   1,
				Payload: appPayload,
			}, devices[i].Keys)
			if err != nil {
				return nil, fmt.Errorf("ingest: encode device %d fcnt %d: %w", i, dtx.fcnt, err)
			}
			phys[j] = phy

			drift := 0.0
			if i < cfg.DriftDevices {
				drift = cfg.DriftSNRdB
			}
			snr := func(gw int) float64 { return meanSNR[i][gw] + r.NormFloat64()*2 - drift }
			mkUplink := func(gw int, ts float64) netserver.Uplink {
				s := snr(gw)
				return netserver.Uplink{
					Gateway:     gw,
					ReceivedAtS: ts,
					SNRdB:       s,
					RSSIdBm:     p.NoiseDBm + s,
					PHYPayload:  phy,
				}
			}

			// Primary copy from the decoding gateway.
			add(dtx.endS, mkUplink(dtx.gw, dtx.endS))
			rp.Expected.Delivered++

			nextAt := res.SimTimeS + 1
			if j+1 < len(frames) {
				nextAt = frames[j+1].endS
			}

			// Secondary copies inside the window from gateways whose mean
			// link budget makes a reception plausible. Skipped when the
			// device's next frame would land inside this frame's window
			// (a copy arriving after a newer counter is a reject, which
			// would make the expected accounting order-dependent).
			if nextAt <= dtx.endS+window {
				continue
			}
			for k := 0; k < g; k++ {
				if k == dtx.gw || meanSNR[i][k] < lora.SNRThresholdDB(a.SF[i])-3 {
					continue
				}
				if r.Float64() >= extraCopyProb {
					continue
				}
				delta := (0.1 + 0.8*r.Float64()) * window / 2
				ts := dtx.endS + delta
				arrival := ts
				if r.Float64() < outOfOrderProb {
					// Timestamped before the primary, dispatched after it.
					ts = dtx.endS - delta/4
				}
				add(arrival, mkUplink(k, ts))
				rp.Expected.Duplicates++
			}

			// A straggler copy after the window closed: the late-duplicate
			// path. Only safe (deterministically a duplicate) while no
			// newer frame intervenes.
			if r.Float64() < lateCopyProb && dtx.endS+3*window < nextAt {
				ts := dtx.endS + 2*window
				add(ts, mkUplink(dtx.gw, ts))
				rp.Expected.Duplicates++
			}

			// A replay of the previous frame arriving after this one was
			// accepted: deterministically rejected (older counter).
			if j > 0 && r.Float64() < staleReplayProb {
				ts := dtx.endS + (0.1+0.5*r.Float64())*window
				s := snr(dtx.gw)
				add(ts, netserver.Uplink{
					Gateway:     dtx.gw,
					ReceivedAtS: ts,
					SNRdB:       s,
					RSSIdBm:     p.NoiseDBm + s,
					PHYPayload:  phys[j-1],
				})
				rp.Expected.Rejected++
			}
		}
	}

	sortStream(stream)
	rp.Uplinks = make([]netserver.Uplink, len(stream))
	for i, su := range stream {
		rp.Uplinks[i] = su.up
	}
	rp.Expected.Uplinks = len(rp.Uplinks)
	return rp, nil
}

// sortStream orders by arrival time with insertion order as tie-break.
func sortStream(stream []replayUplink) {
	sort.Slice(stream, func(i, j int) bool {
		if stream[i].arrivalS != stream[j].arrivalS {
			return stream[i].arrivalS < stream[j].arrivalS
		}
		return stream[i].seq < stream[j].seq
	})
}
