package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName identifies the public call a span wraps.
type spanName uint8

const (
	spAllocate spanName = iota
	spGains
	spNewEvaluator
	spMinEEIfAbove
	spSetDevice
	spSimRun
	spFading
	spBatch
	spDatagram
	spDecode
	spObserve
	spPayload
	spObserveUplink
	spDispatch
	spLoRaWANDecode
	spTrackerObserve
	spControl
	spDrain
	spFlush
	spStep
	spAppendSync
	spEnqueue
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spAllocate:       "alloc.EFLoRa.AllocateWithReport",
	spGains:          "model.Gains",
	spNewEvaluator:   "model.NewEvaluator",
	spMinEEIfAbove:   "model.Evaluator.MinEEIfAbove",
	spSetDevice:      "model.Evaluator.SetDevice",
	spSimRun:         "sim.Run",
	spFading:         "rng.RNG.RayleighPowerGains",
	spBatch:          "engine.Gateway.Batch",
	spDatagram:       "nsd.datagram",
	spDecode:         "ingest.DecodePacketInto",
	spObserve:        "ingest.Frontend.Observe",
	spPayload:        "ingest.RXPK.Payload",
	spObserveUplink:  "downlink.Scheduler.ObserveUplink",
	spDispatch:       "ingest.Pool.Dispatch",
	spLoRaWANDecode:  "lorawan.Decode",
	spTrackerObserve: "ingest.Tracker.Observe",
	spControl:        "nsd.control",
	spDrain:          "ingest.Pool.Drain",
	spFlush:          "ingest.Pool.FlushExpiredVirtual",
	spStep:           "ingest.Reallocator.Step",
	spAppendSync:     "statestore.Store.AppendSync",
	spEnqueue:        "downlink.enqueue",
}

// span is one recorded call: name, start and end in nanoseconds since the
// tracer's epoch, the index of its parent span in the same tracer (-1 for
// a root), the id of the operation it belongs to, and the number of work
// items it covered (calls in a sweep, draws, receptions).
type span struct {
	name       spanName
	parent     int32
	op         int64
	start, end int64
	items      int64
}

// spanAgg accumulates one span name: calls, items, total and self time.
// Self time is a span's duration minus what its child spans cover.
type spanAgg struct {
	count, items, totalNs, selfNs int64
}

type openSpan struct {
	name    spanName
	idx     int32
	op      int64
	start   int64
	childNs int64
}

// tracer records nested spans from one goroutine at a time. It keeps up
// to keep spans for the span file and aggregates every span, kept or not.
// A nil *tracer records nothing, so untraced runs pass nil.
type tracer struct {
	label   string
	epoch   time.Time
	keep    int
	spans   []span
	dropped int64
	open    []openSpan
	agg     [numSpanNames]spanAgg
}

func newTracer(label string, epoch time.Time, keep int) *tracer {
	return &tracer{label: label, epoch: epoch, keep: keep, spans: make([]span, 0, min(keep, 1<<16))}
}

// begin opens a span for op; spans opened before it closes are its
// children.
func (t *tracer) begin(name spanName, op int64) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].idx
	}
	now := int64(time.Since(t.epoch))
	idx := int32(-1)
	if len(t.spans) < t.keep {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: now})
	} else {
		t.dropped++
	}
	t.open = append(t.open, openSpan{name: name, idx: idx, op: op, start: now})
}

// end closes the innermost open span, which covered items work items.
func (t *tracer) end(items int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	dur := now - o.start
	a := &t.agg[o.name]
	a.count++
	a.items += items
	a.totalNs += dur
	a.selfNs += dur - o.childNs
	if n := len(t.open); n > 0 {
		t.open[n-1].childNs += dur
	}
	if o.idx >= 0 {
		s := &t.spans[o.idx]
		s.end = now
		s.items = items
	}
}

// merge folds other's aggregates into t (shard tracers into the main one).
func (t *tracer) merge(other *tracer) {
	for i := range t.agg {
		a, b := &t.agg[i], &other.agg[i]
		a.count += b.count
		a.items += b.items
		a.totalNs += b.totalNs
		a.selfNs += b.selfNs
	}
}

// meanNs is the mean duration of one name's spans.
func (t *tracer) meanNs(name spanName) measured {
	a := t.agg[name]
	if a.count == 0 {
		return measured{}
	}
	return measured{value: float64(a.totalNs) / float64(a.count), n: int(a.count)}
}

// nsPerItem is the total duration of one name's spans per work item.
func (t *tracer) nsPerItem(name spanName) measured {
	a := t.agg[name]
	if a.items == 0 {
		return measured{}
	}
	return measured{value: float64(a.totalNs) / float64(a.items), n: int(a.count)}
}

// scaled divides a measurement's value (unit conversion).
func scaled(m measured, div float64) measured {
	m.value /= div
	return m
}

// writeSpans writes every kept span of the tracers as CSV.
func writeSpans(path string, tracers ...*tracer) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer,index,name,parent,op,start_ns,end_ns,items")
	n := 0
	for _, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d,%d,%d\n", t.label, i, spanNames[s.name], s.parent, s.op, s.start, s.end, s.items)
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
