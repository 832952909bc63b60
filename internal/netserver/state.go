package netserver

import (
	"fmt"
	"sort"
)

// State is a Server's durable state at a consistent cut: everything the
// dedup/replay-protection pipeline needs to resume exactly where it
// stopped. Provisioned device keys are NOT part of the state — they are
// derived from the scenario at construction time — so importing a State
// into a freshly provisioned Server of the same deployment reproduces
// the exporting server bit-for-bit.
//
// All slices are sorted by DevAddr, so two exports of identical servers
// serialize identically regardless of map iteration order.
type State struct {
	// Counters is the accounting at the cut.
	Counters Counters
	// Devices holds the per-device replay-protection state.
	Devices []DeviceState
	// Pending holds the open dedup windows (frames whose window had not
	// closed at the cut).
	Pending []PendingState
}

// DeviceState is one device's replay-protection state: the highest
// counter it has had accepted. A device that has never sent has no entry.
type DeviceState struct {
	DevAddr  uint32
	LastFCnt uint32
}

// PendingState is one open dedup window.
type PendingState struct {
	DevAddr  uint32
	FCnt     uint32
	FPort    uint8
	Payload  []byte
	FirstAtS float64
	Copies   []Uplink
}

// ExportState snapshots the server's durable state. The returned State
// shares no memory with the server.
func (s *Server) ExportState() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{
		Counters: Counters{
			Uplinks:    s.Uplinks,
			Delivered:  s.Delivered,
			Duplicates: s.Duplicates,
			Rejected:   s.Rejected,
		},
	}
	st.Devices = make([]DeviceState, 0, len(s.lastFCnt))
	for a, f := range s.lastFCnt {
		st.Devices = append(st.Devices, DeviceState{DevAddr: a, LastFCnt: f})
	}
	sort.Slice(st.Devices, func(i, j int) bool { return st.Devices[i].DevAddr < st.Devices[j].DevAddr })
	pendAddrs := make([]uint32, 0, len(s.pending))
	for a := range s.pending {
		pendAddrs = append(pendAddrs, a)
	}
	sort.Slice(pendAddrs, func(i, j int) bool { return pendAddrs[i] < pendAddrs[j] })
	st.Pending = make([]PendingState, 0, len(pendAddrs))
	for _, a := range pendAddrs {
		pf := s.pending[a]
		ps := PendingState{
			DevAddr:  a,
			FCnt:     pf.fcnt,
			FPort:    pf.fport,
			Payload:  append([]byte(nil), pf.payload...),
			FirstAtS: pf.firstAt,
			Copies:   make([]Uplink, len(pf.copies)),
		}
		for i, up := range pf.copies {
			up.PHYPayload = append([]byte(nil), up.PHYPayload...)
			ps.Copies[i] = up
		}
		st.Pending = append(st.Pending, ps)
	}
	return st
}

// ImportState replaces the server's durable state with st (a previous
// ExportState). The provisioned device set and the sink are untouched.
func (s *Server) ImportState(st State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range st.Pending {
		if _, ok := s.devices[p.DevAddr]; !ok {
			return fmt.Errorf("netserver: import: pending frame for unprovisioned device %08x", p.DevAddr)
		}
	}
	s.Uplinks = st.Counters.Uplinks
	s.Delivered = st.Counters.Delivered
	s.Duplicates = st.Counters.Duplicates
	s.Rejected = st.Counters.Rejected
	s.lastFCnt = make(map[uint32]uint32, len(st.Devices))
	for _, d := range st.Devices {
		s.lastFCnt[d.DevAddr] = d.LastFCnt
	}
	s.pending = make(map[uint32]*pendingFrame, len(st.Pending))
	for _, p := range st.Pending {
		pf := &pendingFrame{
			fcnt:    p.FCnt,
			fport:   p.FPort,
			payload: append([]byte(nil), p.Payload...),
			firstAt: p.FirstAtS,
			copies:  make([]Uplink, len(p.Copies)),
		}
		for i, up := range p.Copies {
			up.PHYPayload = append([]byte(nil), up.PHYPayload...)
			pf.copies[i] = up
		}
		s.pending[p.DevAddr] = pf
	}
	return nil
}
