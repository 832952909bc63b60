package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time, every thread included:
// shard workers, the garbage collector and any fan-out goroutines.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative heap allocation count. It stops the world
// briefly, so it is read only outside the timed calls.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// startPeakRSS returns freed generator memory to the OS and resets the
// kernel's resident-set high-water mark (VmHWM), so the peak read at the
// end of the run covers only what the program held from here on.
func startPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	_, werr := f.Write([]byte("5"))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("reset peak RSS: %w", werr)
	}
	return nil
}

// peakRSSMB reads VmHWM from /proc/self/status in MB (2^20 bytes).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuStat is the machine-wide jiffy count and its steal share from the
// aggregate cpu line of /proc/stat.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := strings.Fields(string(line))
	var s cpuStat
	if len(fields) < 9 || fields[0] != "cpu" {
		return s
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice],
	// where guest time is already counted in user.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		s.total += v
		if i == 7 {
			s.steal = v
		}
	}
	return s
}

// stealPct is the share of machine CPU time stolen by the hypervisor
// between two readings, in percent.
func stealPct(from, to cpuStat) float64 {
	if to.total <= from.total {
		return 0
	}
	return 100 * float64(to.steal-from.steal) / float64(to.total-from.total)
}

// hostInfo describes the machine a run measured, so a noisy set of runs
// can be traced to its cause.
func hostInfo(walDir string) string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s wal_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), fsType(walDir))
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlay"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// median is the middle value of xs (mean of the two middle values for an
// even count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }

// mix derives the seed of item k of a stream from the run seed
// (splitmix64 finalizer, so neighbouring run seeds share no items).
func mix(seed uint64, stream, k uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + k*0x94D049BB133111EB + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// latHist records nanosecond latencies in 10 ns buckets up to 2 ms and
// keeps slower ones exactly, so its memory does not grow with the run
// (a growing sample slice showed up in the peak resident set).
type latHist struct {
	buckets []uint32
	slow    []int64
	n       int
}

const latBucketNs = 10

func newLatHist() *latHist { return &latHist{buckets: make([]uint32, 2e6/latBucketNs)} }

func (h *latHist) add(ns int64) {
	h.n++
	if b := ns / latBucketNs; ns >= 0 && b < int64(len(h.buckets)) {
		h.buckets[b]++
		return
	}
	h.slow = append(h.slow, ns)
}

// quantile is the nearest-rank q-quantile in nanoseconds (a bucket's
// midpoint below 2 ms).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int(q*float64(h.n) + 0.999999)
	rank = max(1, min(rank, h.n))
	seen := 0
	for b, c := range h.buckets {
		if seen += int(c); seen >= rank {
			return float64(b*latBucketNs) + latBucketNs/2
		}
	}
	slices.Sort(h.slow)
	return float64(h.slow[rank-seen-1])
}
