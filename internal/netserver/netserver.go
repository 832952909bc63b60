// Package netserver implements the LoRaWAN network-server role of the
// paper's system model (Section III-A): gateways forward every reception
// with metadata to a central server, which de-duplicates the copies (an
// uplink heard by several gateways counts once), verifies and decrypts
// the frames, tracks per-device frame counters, and hands each delivery,
// its gateway copies ranked best SNR first, to one sink.
//
// A Server is one unit of concurrency: it serializes ingestion under a
// single mutex. Batch callers (the simulator, examples) use one Server
// for the whole network; the live daemon in internal/ingest shards the
// device population across a pool of Servers so independent devices
// never contend on the same lock.
//
// This package models everything above the radio: the physics of what a
// gateway could receive at all — sensitivity, collisions, demodulator
// capacity — lives in internal/engine (driven live by ingest.Frontend and
// in simulation by internal/sim), and only decoded frames reach a Server.
package netserver

import (
	"fmt"
	"sort"
	"sync"

	"eflora/internal/lorawan"
)

// Uplink is one gateway's reception of a frame, as forwarded to the
// server.
type Uplink struct {
	// Gateway is the reporting gateway's index.
	Gateway int
	// ReceivedAtS is the reception timestamp in seconds.
	ReceivedAtS float64
	// RSSIdBm and SNRdB are the reception quality metadata.
	RSSIdBm, SNRdB float64
	// PHYPayload is the raw frame.
	PHYPayload []byte
}

// Delivery is a de-duplicated, verified and decrypted uplink.
type Delivery struct {
	DevAddr uint32
	FCnt    uint32
	FPort   uint8
	Payload []byte
	// Gateways lists every gateway that reported a copy, best SNR first.
	Gateways []Uplink
}

// Device is a provisioned end device.
type Device struct {
	DevAddr uint32
	Keys    lorawan.Keys
}

// Server is the network server. It is safe for concurrent use by multiple
// gateway forwarders.
type Server struct {
	mu      sync.Mutex
	devices map[uint32]lorawan.Keys
	// lastFCnt tracks the highest accepted counter per device for replay
	// protection and FCnt roll-over reconstruction; a device without an
	// entry has never sent.
	lastFCnt map[uint32]uint32
	// pending groups copies of the current frame per device until the
	// dedup window closes.
	pending map[uint32]*pendingFrame
	// DedupWindowS is how long the server waits for more gateway copies
	// before finalizing a delivery (default 0.2 s).
	DedupWindowS float64

	// sink receives every finalized delivery; the server keeps none.
	sink func(Delivery)

	// Uplinks counts every HandleUplink call; Delivered counts finalized
	// deliveries; Duplicates counts redundant gateway copies (merged into
	// a pending frame or arriving late, after its window closed);
	// Rejected counts frames that failed verification or replay checks.
	Uplinks, Delivered, Duplicates, Rejected int
}

type pendingFrame struct {
	fcnt    uint32
	fport   uint8
	payload []byte
	firstAt float64
	copies  []Uplink
}

// New creates a server with the given provisioned devices. sink receives
// every delivery as it finalizes, in finalization order; it runs with the
// server lock held and must not call back into the Server. A nil sink
// discards deliveries, which the counters still count.
func New(devices []Device, sink func(Delivery)) *Server {
	s := &Server{
		devices:      make(map[uint32]lorawan.Keys, len(devices)),
		lastFCnt:     make(map[uint32]uint32),
		pending:      make(map[uint32]*pendingFrame),
		DedupWindowS: 0.2,
		sink:         sink,
	}
	for _, d := range devices {
		s.devices[d.DevAddr] = d.Keys
	}
	return s
}

// HandleUplink ingests one gateway reception. Frames that fail MIC
// verification, belong to unknown devices, or replay an old counter are
// counted in Rejected. Copies of a frame already pending are merged; a
// same-counter copy arriving after the dedup window closed is counted as
// a late Duplicate.
func (s *Server) HandleUplink(up Uplink) error {
	if len(up.PHYPayload) < lorawan.FrameOverheadBytes {
		s.mu.Lock()
		s.Uplinks++
		s.Rejected++
		s.mu.Unlock()
		return fmt.Errorf("netserver: frame too short (%d bytes)", len(up.PHYPayload))
	}
	// DevAddr is at bytes 1..4; look the keys up before full decode.
	devAddr := uint32(up.PHYPayload[1]) | uint32(up.PHYPayload[2])<<8 |
		uint32(up.PHYPayload[3])<<16 | uint32(up.PHYPayload[4])<<24

	s.mu.Lock()
	defer s.mu.Unlock()
	s.Uplinks++
	keys, ok := s.devices[devAddr]
	if !ok {
		s.Rejected++
		return fmt.Errorf("netserver: unknown device %08x", devAddr)
	}
	f, err := lorawan.Decode(up.PHYPayload, keys, s.lastFCnt[devAddr]>>16)
	if err != nil {
		s.Rejected++
		return fmt.Errorf("netserver: %w", err)
	}

	// Flush a pending frame whose window has closed.
	if pf, ok := s.pending[devAddr]; ok {
		if f.FCnt != pf.fcnt || up.ReceivedAtS-pf.firstAt > s.DedupWindowS {
			s.finalizeLocked(devAddr, pf)
			delete(s.pending, devAddr)
		}
	}

	if pf, ok := s.pending[devAddr]; ok && pf.fcnt == f.FCnt {
		// Redundant gateway copy of the pending frame.
		pf.copies = append(pf.copies, up)
		s.Duplicates++
		return nil
	}

	// Replay protection: a finalized or pending counter must be fresh. A
	// copy of the *current* counter is not an attack — it is a gateway
	// copy that lost the race with the dedup window (or with a clock
	// flush) — so it counts as a late duplicate, not a reject.
	if last, seen := s.lastFCnt[devAddr]; seen && f.FCnt <= last {
		if f.FCnt == last {
			s.Duplicates++
			return nil
		}
		s.Rejected++
		return fmt.Errorf("netserver: replayed FCnt %d (last %d)", f.FCnt, last)
	}
	s.pending[devAddr] = &pendingFrame{
		fcnt:    f.FCnt,
		fport:   f.FPort,
		payload: f.Payload,
		firstAt: up.ReceivedAtS,
		copies:  []Uplink{up},
	}
	s.lastFCnt[devAddr] = f.FCnt
	return nil
}

// finalizeLocked turns a pending frame into a delivery. Callers hold mu.
func (s *Server) finalizeLocked(devAddr uint32, pf *pendingFrame) {
	s.Delivered++
	if s.sink == nil {
		return
	}
	sort.SliceStable(pf.copies, func(i, j int) bool {
		return pf.copies[i].SNRdB > pf.copies[j].SNRdB
	})
	s.sink(Delivery{
		DevAddr:  devAddr,
		FCnt:     pf.fcnt,
		FPort:    pf.fport,
		Payload:  pf.payload,
		Gateways: pf.copies,
	})
}

// Flush finalizes every pending frame (end of a simulation or batch).
func (s *Server) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	addrs := make([]uint32, 0, len(s.pending))
	for a := range s.pending {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		s.finalizeLocked(a, s.pending[a])
		delete(s.pending, a)
	}
}

// FlushExpired finalizes pending frames whose dedup window has closed by
// nowS — the clock-driven flush a live server runs so a device's last
// frame does not linger until that device happens to send again. It
// returns the number of deliveries finalized.
func (s *Server) FlushExpired(nowS float64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	addrs := make([]uint32, 0, len(s.pending))
	for a, pf := range s.pending {
		if nowS-pf.firstAt > s.DedupWindowS {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		s.finalizeLocked(a, s.pending[a])
		delete(s.pending, a)
	}
	return len(addrs)
}

// PendingCount reports how many frames are waiting for their dedup
// window to close.
func (s *Server) PendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Counters is a consistent snapshot of the server's accounting.
type Counters struct {
	// Uplinks counts every ingested gateway reception; Delivered the
	// finalized de-duplicated frames; Duplicates the merged or late
	// redundant copies; Rejected the verification/replay failures.
	Uplinks, Delivered, Duplicates, Rejected int
}

// Add accumulates other into c (for aggregating shard counters).
func (c *Counters) Add(other Counters) {
	c.Uplinks += other.Uplinks
	c.Delivered += other.Delivered
	c.Duplicates += other.Duplicates
	c.Rejected += other.Rejected
}

// Counters returns a consistent snapshot of the accounting counters.
func (s *Server) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Counters{
		Uplinks:    s.Uplinks,
		Delivered:  s.Delivered,
		Duplicates: s.Duplicates,
		Rejected:   s.Rejected,
	}
}
