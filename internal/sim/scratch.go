package sim

import (
	"eflora/internal/engine"
	"eflora/internal/rng"
)

// Scratch holds every buffer a Run or RunConfirmed invocation needs, so
// repeated runs — the repeated packet-level trials behind each figure —
// reuse one arena instead of re-allocating the per-device generator
// state, the retransmission queues, the window buffers, the per-gateway
// receivers and the Result slices each time. A zero Scratch is ready to use; buffers grow to the
// high-water mark of the runs they serve and stay there (the slab.Grow
// contract). Apart from the Result and an optional Trace, every buffer
// is O(devices + gateways + one window), never O(run length).
//
// Ownership contract: the *Result (or *ConfirmedResult) returned by a
// run with a Scratch aliases the scratch's buffers. It is valid until
// the next run with the same scratch; callers that keep per-device
// slices across runs must copy them first. A run is single-threaded and a
// Scratch serves one run at a time; concurrent trials need one Scratch
// each, e.g. from a sync.Pool.
type Scratch struct {
	// Per-device schedule columns.
	toa, tpMW, interval, slack []float64
	packets                    []int

	// Per-device generator state: a jitter RNG snapshot, the next
	// unemitted start and its packet index.
	devRng    []rng.RNG
	nextStart []float64
	nextM     []int

	// Per-(device, gateway) link columns at d*g+k: transmit power times
	// path gain, and the raw fading draw below which the reception
	// certainly misses sensitivity (rng.RayleighMissBound).
	scale []float64
	bound []uint64

	// The current window: the device scan's entries, the same entries in
	// (start, device) order with their bucket offsets, the columnar
	// window the batch kernel consumes, each gateway's selection of the
	// entries that cleared sensitivity (gateway k's at sel[k*wn:], nsel[k]
	// of them) and its received-power column, valid at the selected
	// entries (vis[k*wn : (k+1)*wn]), and one gateway's verdicts, reused
	// gateway by gateway.
	scan, order []txEntry
	bucketEnd   []int32
	win         engine.Window
	sel         []int32
	vis         []float64
	nsel        []int
	done        []engine.Done

	// Transmissions whose cross-gateway verdict is still open.
	pend []pendTx

	// Retransmitting runs only (RunConfirmed): each device's backoff
	// stream and the retransmissions queued for a later window. A
	// retransmission waits at most a few windows, so the queue is
	// O(devices), not O(run length).
	backoff []rng.RNG
	retx    []retxTx

	// Per-gateway receiver state, carried across windows.
	gws []engine.Gateway

	// Backing arrays for the optional Result fields, kept here because
	// Run nils the Result fields out when the options are off.
	trace  []PacketRecord
	maxSNR []float64

	// The result Run returns embedded and RunConfirmed returns whole.
	res ConfirmedResult
}
