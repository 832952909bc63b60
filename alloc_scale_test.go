package eflora_test

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchRecording mirrors the cmd/eflora-bench Recording schema (that
// package is a main and cannot be imported).
type benchRecording struct {
	Benchmarks []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
}

// TestHierarchicalScaleRecording pins the headline scaling claim against
// the recorded BENCH_alloc.json: the hierarchical allocator handles 100k
// devices in less wall clock than the exact greedy needs for 10k. The
// recording is regenerated with
//
//	EFLORA_HEAVY_BENCH=1 go run ./cmd/eflora-bench \
//	    -bench 'HierarchicalAllocate|ExactGreedyAllocate|EFLoRaAllocate' \
//	    -benchtime 1x -count 3 -o BENCH_alloc.json
//
// which stores each benchmark's median of three runs in ns_per_op.
// so the test stays cheap (a JSON read) while the claim itself is
// re-verifiable on demand.
func TestHierarchicalScaleRecording(t *testing.T) {
	data, err := os.ReadFile("BENCH_alloc.json")
	if err != nil {
		t.Fatalf("missing scale recording: %v", err)
	}
	var rec benchRecording
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("BENCH_alloc.json: %v", err)
	}
	ns := map[string]float64{}
	for _, b := range rec.Benchmarks {
		// Names carry a -N GOMAXPROCS suffix on multi-proc recording hosts.
		name := b.Name
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		ns[name] = b.NsPerOp
	}
	hier100k, ok := ns["BenchmarkHierarchicalAllocate100k"]
	if !ok {
		t.Fatal("recording lacks BenchmarkHierarchicalAllocate100k")
	}
	exact10k, ok := ns["BenchmarkExactGreedyAllocate10k"]
	if !ok {
		t.Fatal("recording lacks BenchmarkExactGreedyAllocate10k")
	}
	if hier100k <= 0 || exact10k <= 0 {
		t.Fatalf("degenerate recording: hier100k=%v exact10k=%v", hier100k, exact10k)
	}
	if hier100k >= exact10k {
		t.Errorf("hierarchical@100k (%.3gs) not faster than exact greedy@10k (%.3gs); "+
			"re-record BENCH_alloc.json if the host changed", hier100k/1e9, exact10k/1e9)
	}
	for _, name := range []string{"BenchmarkHierarchicalAllocate1k", "BenchmarkHierarchicalAllocate10k"} {
		if ns[name] <= 0 {
			t.Errorf("recording lacks %s", name)
		}
	}
}
