package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord is printed with every result, beside the seed and the load,
// so a number can be traced to the machine, toolchain and code that
// produced it.
type hostRecord struct {
	NProc      int
	GOMAXPROCS int
	CPUModel   string
	GoVersion  string
	Commit     string // git HEAD when the checkout is a repository, else "none"
}

func newHostRecord(root string) hostRecord {
	return hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitHead(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitHead reads the commit root/.git/HEAD names, following a branch ref
// to its loose ref file; "none" when either read fails.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	b, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(b))
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the CPU time the hypervisor took from this machine's
// CPUs (the steal column of /proc/stat) and how many CPUs that total
// covers; (0, 0) where there is no such figure. It is printed beside
// each timed span as a diagnostic: on a shared host, heavy steal marks a
// run whose wall-clock figures the neighbours' load has slowed.
func hostSteal() (time.Duration, int) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	return parseSteal(string(b))
}

func parseSteal(stat string) (time.Duration, int) {
	lines := strings.Split(stat, "\n")
	f := strings.Fields(lines[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, 0
	}
	cpus := 0
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "cpu") {
			cpus++
		}
	}
	const userHZ = 100 // USER_HZ, fixed at 100 on Linux
	return time.Duration(ticks) * time.Second / userHZ, cpus
}

// hostTimer measures the wall time of a span and the CPU time the
// hypervisor stole from the machine meanwhile.
type hostTimer struct {
	t0     time.Time
	steal0 time.Duration
}

// hostSpan is one measured interval.
type hostSpan struct {
	wall  time.Duration
	steal time.Duration // CPU time stolen from all the machine's CPUs
	cpus  int           // CPUs the steal covers; 0 where it is unknown
}

func startHostTimer() hostTimer {
	s, _ := hostSteal()
	return hostTimer{t0: time.Now(), steal0: s}
}

func (h hostTimer) stop() hostSpan {
	wall := time.Since(h.t0)
	s, cpus := hostSteal()
	return hostSpan{wall: wall, steal: s - h.steal0, cpus: cpus}
}

// stealShare is the share of the machine's CPU time over the span that
// the hypervisor stole; 0 where steal is unknown.
func (s hostSpan) stealShare() float64 {
	if s.cpus == 0 {
		return 0
	}
	return ratio(s.steal.Seconds(), s.wall.Seconds()*float64(s.cpus))
}

// peakRSSMB is the process's peak resident set (ru_maxrss, KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeSample is a snapshot of the runtime/metrics the per-layer
// ledger differences over a pass.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles float64
	cpuTotal, cpuGC, cpuIdle           float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readRuntime samples the runtime metrics. The /cpu/classes figures are
// only refreshed at garbage collections, so the caller collects first.
func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		allocBytes: v(0), allocObjects: v(1), gcCycles: v(2),
		cpuTotal: v(3), cpuGC: v(4), cpuIdle: v(5),
	}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		allocBytes: a.allocBytes - b.allocBytes, allocObjects: a.allocObjects - b.allocObjects,
		gcCycles: a.gcCycles - b.gcCycles, cpuTotal: a.cpuTotal - b.cpuTotal,
		cpuGC: a.cpuGC - b.cpuGC, cpuIdle: a.cpuIdle - b.cpuIdle,
	}
}
