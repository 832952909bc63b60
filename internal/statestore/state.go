package statestore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"eflora/internal/ingest"
	"eflora/internal/lora"
	"eflora/internal/model"
	"eflora/internal/netserver"
)

// FCntDownEntry is one device's downlink frame counter, sorted by DevAddr
// in a State.
type FCntDownEntry struct {
	DevAddr uint32
	FCnt    uint32
}

// State is everything a netserver shard needs to resume serving after a
// restart: the pool's dedup/replay state, the rolling per-device tracker,
// the current allocation, downlink frame counters, and the reallocation
// accounting — plus an envelope (Epoch, Seq, UplinkCount, TakenAtS)
// locating the cut in the WAL and in the uplink stream.
type State struct {
	// Epoch counts snapshots taken over the directory's lifetime; each
	// snapshot anchors a new WAL segment.
	Epoch uint64
	// Seq is the last WAL sequence number folded into this state; records
	// with higher sequence numbers must be replayed on top.
	Seq uint64
	// UplinkCount is how many source uplinks had been dispatched at the
	// cut — the resume position in a replay stream.
	UplinkCount uint64
	// TakenAtS is the server-relative time of the cut in seconds.
	TakenAtS float64

	// Pool is the shard servers' dedup/replay state; Tracker the rolling
	// per-device statistics, sorted by DevAddr.
	Pool    ingest.PoolState
	Tracker []ingest.TrackerEntry

	// Alloc is the current allocation; Reassigned the lifetime move count.
	Alloc      model.Allocation
	Reassigned uint64

	// FCntDown holds the per-device downlink frame counters, sorted by
	// DevAddr.
	FCntDown []FCntDownEntry
}

// Digest returns a stable hex digest of the state's durable body — the
// envelope (Epoch/Seq/UplinkCount/TakenAtS) is excluded, so an
// uninterrupted oracle and a crash-recovered run that converged on the
// same serving state produce the same digest even though their snapshot
// cadences differ. Floats are digested as raw IEEE-754 bits: bit-exact or
// nothing.
func (st *State) Digest() string {
	var e encoder
	st.encodeBody(&e)
	sum := sha256.Sum256(e.buf)
	return hex.EncodeToString(sum[:])
}

// encodeBody appends the durable body (everything except the envelope) in
// canonical order.
func (st *State) encodeBody(e *encoder) {
	// Pool.
	e.u32(uint32(len(st.Pool.Shards)))
	for _, sh := range st.Pool.Shards {
		encodeServerState(e, sh)
	}
	e.u32(uint32(len(st.Pool.MaxSeenS)))
	for _, v := range st.Pool.MaxSeenS {
		e.f64(v)
	}
	// Tracker.
	e.u32(uint32(len(st.Tracker)))
	for _, t := range st.Tracker {
		e.u32(t.DevAddr)
		e.f64(t.Stats.EwmaSNRdB)
		e.u32(t.Stats.LastFCnt)
		e.u64(t.Stats.Received)
		e.u64(t.Stats.Expected)
	}
	// Allocation.
	e.u32(uint32(len(st.Alloc.SF)))
	for _, sf := range st.Alloc.SF {
		e.u8(uint8(sf))
	}
	e.u32(uint32(len(st.Alloc.TPdBm)))
	for _, tp := range st.Alloc.TPdBm {
		e.f64(tp)
	}
	e.u32(uint32(len(st.Alloc.Channel)))
	for _, ch := range st.Alloc.Channel {
		e.u64(uint64(int64(ch)))
	}
	e.u64(st.Reassigned)
	// Downlink counters.
	e.u32(uint32(len(st.FCntDown)))
	for _, f := range st.FCntDown {
		e.u32(f.DevAddr)
		e.u32(f.FCnt)
	}
}

func encodeServerState(e *encoder, st netserver.State) {
	e.u64(uint64(int64(st.Counters.Uplinks)))
	e.u64(uint64(int64(st.Counters.Delivered)))
	e.u64(uint64(int64(st.Counters.Duplicates)))
	e.u64(uint64(int64(st.Counters.Rejected)))
	e.u32(uint32(len(st.Devices)))
	for _, d := range st.Devices {
		e.u32(d.DevAddr)
		e.u32(d.LastFCnt)
	}
	e.u32(uint32(len(st.Pending)))
	for _, p := range st.Pending {
		e.u32(p.DevAddr)
		e.u32(p.FCnt)
		e.u8(p.FPort)
		e.bytes(p.Payload)
		e.f64(p.FirstAtS)
		e.u32(uint32(len(p.Copies)))
		for _, c := range p.Copies {
			encodeUplink(e, c)
		}
	}
}

func encodeUplink(e *encoder, u netserver.Uplink) {
	e.u64(uint64(int64(u.Gateway)))
	e.f64(u.ReceivedAtS)
	e.f64(u.RSSIdBm)
	e.f64(u.SNRdB)
	e.bytes(u.PHYPayload)
}

// encode appends the full state (envelope + body) as the snapshot payload.
func (st *State) encode(e *encoder) {
	e.u64(st.Epoch)
	e.u64(st.Seq)
	e.u64(st.UplinkCount)
	e.f64(st.TakenAtS)
	st.encodeBody(e)
}

func decodeState(d *decoder) (*State, error) {
	st := &State{}
	st.Epoch = d.u64()
	st.Seq = d.u64()
	st.UplinkCount = d.u64()
	st.TakenAtS = d.f64()
	// Pool.
	nShards := d.count("pool shards")
	st.Pool.Shards = make([]netserver.State, 0, min(nShards, 1<<16))
	for i := 0; i < nShards && d.err == nil; i++ {
		st.Pool.Shards = append(st.Pool.Shards, decodeServerState(d))
	}
	nClocks := d.count("pool clocks")
	st.Pool.MaxSeenS = make([]float64, 0, min(nClocks, 1<<16))
	for i := 0; i < nClocks && d.err == nil; i++ {
		st.Pool.MaxSeenS = append(st.Pool.MaxSeenS, d.f64())
	}
	// Tracker.
	nTrack := d.count("tracker entries")
	st.Tracker = make([]ingest.TrackerEntry, 0, min(nTrack, 1<<16))
	for i := 0; i < nTrack && d.err == nil; i++ {
		var t ingest.TrackerEntry
		t.DevAddr = d.u32()
		t.Stats.EwmaSNRdB = d.f64()
		t.Stats.LastFCnt = d.u32()
		t.Stats.Received = d.u64()
		t.Stats.Expected = d.u64()
		if d.version == 1 {
			d.u64() // the tracker's best gateway, which format 2 dropped
		}
		st.Tracker = append(st.Tracker, t)
	}
	// Allocation.
	nSF := d.count("alloc sf")
	st.Alloc.SF = make([]lora.SF, 0, min(nSF, 1<<16))
	for i := 0; i < nSF && d.err == nil; i++ {
		st.Alloc.SF = append(st.Alloc.SF, lora.SF(d.u8()))
	}
	nTP := d.count("alloc tp")
	st.Alloc.TPdBm = make([]float64, 0, min(nTP, 1<<16))
	for i := 0; i < nTP && d.err == nil; i++ {
		st.Alloc.TPdBm = append(st.Alloc.TPdBm, d.f64())
	}
	nCh := d.count("alloc channel")
	st.Alloc.Channel = make([]int, 0, min(nCh, 1<<16))
	for i := 0; i < nCh && d.err == nil; i++ {
		st.Alloc.Channel = append(st.Alloc.Channel, int(int64(d.u64())))
	}
	st.Reassigned = d.u64()
	// Downlink counters.
	nF := d.count("fcntdown entries")
	st.FCntDown = make([]FCntDownEntry, 0, min(nF, 1<<16))
	for i := 0; i < nF && d.err == nil; i++ {
		var f FCntDownEntry
		f.DevAddr = d.u32()
		f.FCnt = d.u32()
		st.FCntDown = append(st.FCntDown, f)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("statestore: snapshot payload has %d trailing bytes", len(d.buf)-d.off)
	}
	return st, nil
}

func decodeServerState(d *decoder) netserver.State {
	var st netserver.State
	st.Counters.Uplinks = int(int64(d.u64()))
	st.Counters.Delivered = int(int64(d.u64()))
	st.Counters.Duplicates = int(int64(d.u64()))
	st.Counters.Rejected = int(int64(d.u64()))
	nDev := d.count("shard devices")
	st.Devices = make([]netserver.DeviceState, 0, min(nDev, 1<<16))
	for i := 0; i < nDev && d.err == nil; i++ {
		var ds netserver.DeviceState
		ds.DevAddr = d.u32()
		ds.LastFCnt = d.u32()
		if d.version == 1 {
			// Format 1's seen flag and best gateway. An entry with
			// neither a counter nor the flag held no replay state, and
			// importing it changed nothing.
			seen := d.bool()
			d.u64()
			d.bool()
			if ds.LastFCnt == 0 && !seen {
				continue
			}
		}
		st.Devices = append(st.Devices, ds)
	}
	nPend := d.count("shard pending")
	st.Pending = make([]netserver.PendingState, 0, min(nPend, 1<<16))
	for i := 0; i < nPend && d.err == nil; i++ {
		var p netserver.PendingState
		p.DevAddr = d.u32()
		p.FCnt = d.u32()
		p.FPort = d.u8()
		p.Payload = d.bytes()
		p.FirstAtS = d.f64()
		nCopies := d.count("pending copies")
		p.Copies = make([]netserver.Uplink, 0, min(nCopies, 1<<16))
		for j := 0; j < nCopies && d.err == nil; j++ {
			p.Copies = append(p.Copies, decodeUplink(d))
		}
		st.Pending = append(st.Pending, p)
	}
	return st
}

func decodeUplink(d *decoder) netserver.Uplink {
	var u netserver.Uplink
	u.Gateway = int(int64(d.u64()))
	u.ReceivedAtS = d.f64()
	u.RSSIdBm = d.f64()
	u.SNRdB = d.f64()
	u.PHYPayload = d.bytes()
	return u
}

// encoder builds the little-endian snapshot payload.
type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) u32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

func (e *encoder) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// f64 stores the raw IEEE-754 bits: round-tripping is bit-exact, NaN
// payloads included.
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// decoder walks a snapshot payload of the given format version, latching
// the first error.
type decoder struct {
	buf     []byte
	off     int
	err     error
	version uint32
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("statestore: snapshot truncated at %s (offset %d of %d)", what, d.off, len(d.buf))
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off+1 > len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) bool() bool {
	v := d.u8()
	if d.err == nil && v > 1 {
		d.err = fmt.Errorf("statestore: snapshot bool byte %#x at offset %d", v, d.off-1)
	}
	return v == 1
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.buf) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a u32 length prefix and sanity-bounds it against the bytes
// remaining, so a corrupt length cannot drive allocation.
func (d *decoder) count(what string) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if int64(n) > int64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("statestore: snapshot %s count %d exceeds remaining %d bytes", what, n, len(d.buf)-d.off)
		return 0
	}
	return int(n)
}

func (d *decoder) bytes() []byte {
	n := d.count("bytes")
	if d.err != nil {
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:d.off+n])
	d.off += n
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
