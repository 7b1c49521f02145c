package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rrsched/internal/obs"
)

// percentile returns the nearest-rank p-th percentile of samples (sorted in
// place).
func percentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(float64(len(samples))*p/100+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(samples) {
		i = len(samples) - 1
	}
	return samples[i]
}

func median(samples []int64) int64 { return percentile(samples, 50) }

// medianFloat returns the median of v (sorted in place).
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's resident-set high-water mark (VmHWM), so
// peak_rss_mib excludes input generation. It reports whether the reset took.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSBytes reads VmHWM from /proc/self/status.
func peakRSSBytes() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// syncDisks flushes every filesystem's dirty data. Without it, writeback of
// an earlier run's (or the warm-up's) files and metadata lands in the timed
// window, and a paging run slows down when it follows another one.
func syncDisks() { syscall.Sync() }

// fsType names the filesystem holding dir: state-dir figures differ by an
// order of magnitude between tmpfs and a disk.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// stealProbe is the machine-wide CPU time and the part of it the hypervisor
// stole, from /proc/stat, in clock ticks.
type stealProbe struct{ steal, total int64 }

func readSteal() stealProbe {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealProbe{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var p stealProbe
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return stealProbe{}
		}
		// user nice system idle iowait irq softirq steal guest guest_nice;
		// guest time is already counted in user.
		if i < 8 {
			p.total += v
		}
		if i == 7 {
			p.steal = v
		}
	}
	return p
}

// since returns the stolen share of the CPU time elapsed since p0.
func (p stealProbe) since(p0 stealProbe) float64 {
	if p.total <= p0.total {
		return 0
	}
	return float64(p.steal-p0.steal) / float64(p.total-p0.total)
}

// runtimeProbe reads the Go runtime's allocation and GC CPU counters.
type runtimeProbe struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

func readRuntime() runtimeProbe {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var p runtimeProbe
	if s[0].Value.Kind() == metrics.KindUint64 {
		p.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		p.totalCPU = s[2].Value.Float64()
	}
	return p
}

// counters indexes an obs snapshot (the program's /metrics) by name; labeled
// counter-vector entries are summed under their name.
type counters map[string]obs.MetricSnapshot

func indexSnapshot(s *obs.Snapshot) counters {
	c := counters{}
	if s == nil {
		return c
	}
	for _, m := range s.Metrics {
		prev := c[m.Name]
		prev.Name, prev.Kind = m.Name, m.Kind
		prev.Value += m.Value
		prev.Count += m.Count
		prev.Sum += m.Sum
		c[m.Name] = prev
	}
	return c
}

// delta returns after−before of a counter or gauge value.
func delta(before, after counters, name string) int64 {
	return after[name].Value - before[name].Value
}

// histMean returns the mean of a histogram's observations between two
// snapshots, and how many there were. The program's histograms use
// power-of-four buckets, so their sum÷count mean is the only sharp figure.
func histMean(before, after counters, name string) (float64, int64) {
	n := after[name].Count - before[name].Count
	if n <= 0 {
		return 0, 0
	}
	return float64(after[name].Sum-before[name].Sum) / float64(n), n
}
