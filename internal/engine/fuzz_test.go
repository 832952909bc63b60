package engine

import (
	"math"
	"testing"

	"eflora/internal/lora"
)

// fuzzStream decodes the fuzzer's byte string into a sorted event
// stream: every 5-byte group is one transmission (device, SF, channel,
// start delta, duration, power exponent around sensitivity), so any
// input is a valid stream and coverage guides the fuzzer straight at
// the interesting overlap structure.
func fuzzStream(data []byte) (*Window, []float64) {
	w := &Window{}
	rx := make([]float64, 0, len(data)/5)
	start := 0.0
	for len(data) >= 5 {
		dev := int(data[0] & 15)
		sf := lora.SF7 + lora.SF(data[1]%6)
		ch := int(data[1] >> 7)
		start += float64(data[2]) / 32
		dur := 0.01 + float64(data[3])/64
		w.Append(dev, sf, ch, start, start+dur, 1)
		sens := lora.DBmToMilliwatts(lora.SensitivityDBm(sf))
		rx = append(rx, sens*math.Pow(10, (float64(data[4])-32)/32))
		data = data[5:]
	}
	return w, rx
}

// FuzzEngineBatchVsScalar feeds the same event stream through the
// scalar reference receiver (arriveScalar and FinishUpTo), full-window
// Batch, the Sweep kernel over each window's visible entries, and
// per-event Batch — one arrival per call cut at its own start, the live
// frontend's pattern — split at the same window cuts, and requires
// equality of per-token outcomes and counters. Half-duplex streams run a
// second time with a retire hook, through the reference and Sweep. A
// zero start delta gives the next transmission the same start, so the
// fuzzer reaches the runs of equal starts the frontend's clock clamp
// produces.
func FuzzEngineBatchVsScalar(f *testing.F) {
	// Capture on/off over a plain overlap pair.
	pair := []byte{
		0, 0, 8, 64, 60,
		1, 0, 4, 64, 40,
	}
	f.Add(false, false, uint8(8), uint64(1), pair)
	f.Add(true, false, uint8(8), uint64(1), pair)
	// Capacity saturation: four concurrent arrivals into one demodulator.
	f.Add(false, false, uint8(1), uint64(2), []byte{
		0, 0, 8, 128, 60,
		1, 1, 0, 128, 60,
		2, 2, 0, 128, 60,
		3, 3, 0, 128, 60,
	})
	// Half-duplex blocking with arrivals straddling the ACK window.
	f.Add(false, true, uint8(8), uint64(3), []byte{
		0, 0, 8, 200, 60,
		1, 0, 8, 200, 60,
		2, 0, 8, 200, 60,
	})
	// Below-sensitivity mix under capture.
	f.Add(true, true, uint8(2), uint64(4), []byte{
		0, 0, 8, 64, 10,
		1, 0, 2, 64, 90,
		2, 0, 2, 64, 31,
	})
	// Runs of equal starts under capture and half-duplex, as the live
	// frontend's clock clamp produces them.
	f.Add(true, true, uint8(3), uint64(5), []byte{
		0, 0, 8, 64, 60,
		1, 0, 0, 64, 58,
		2, 0, 0, 64, 40,
		3, 1, 0, 64, 60,
		4, 0, 16, 64, 60,
		5, 0, 0, 64, 60,
	})
	f.Fuzz(func(t *testing.T, capture, halfDuplex bool, capacity uint8, cutSeed uint64, data []byte) {
		w, rx := fuzzStream(data)
		cfg := testConfig(capture, halfDuplex)
		cfg.Capacity = 1 + int(capacity%8)
		// Window cuts march through the stream with a seed-derived
		// stride, exercising single-call and many-window layouts alike.
		stride := 0.5 + float64(cutSeed%16)/2
		var cuts []float64
		if n := w.Len(); n > 0 {
			for c := stride; c < w.StartS[n-1]+stride; c += stride {
				cuts = append(cuts, c)
			}
		}
		cuts = append(cuts, math.Inf(1))
		var acks [][2]float64
		if halfDuplex {
			from := float64(cutSeed % 7)
			acks = append(acks, [2]float64{from, from + 1.5}, [2]float64{from + 3, from + 3})
		}
		diffStreams(t, cfg, w, rx, cuts, acks, nil)
		if halfDuplex {
			// The retire hook's downlinks start within a stride of the
			// uplink's end, so they block arrivals in the same window.
			delay := float64(cutSeed>>4%8) / 8 * stride
			diffStreams(t, cfg, w, rx, cuts, acks, ackHook(w, delay, 0.25+float64(cutSeed>>7%4)))
		}
	})
}
