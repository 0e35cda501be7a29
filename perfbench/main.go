// Command perfbench is the repository's benchmark. It drives one of
// two closed-loop workloads through the layers' public functions for a
// fixed time, checks every op's output, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer ones) as the last line of
// its output, a JSON object. Run it from the repository root:
//
//	bash perfbench/run.sh --workload session-mix --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what each predicts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median of their CPU times.
	setupReps = 5
	// heavySteal is the share of the machine's CPU time stolen by the
	// hypervisor above which a pass is flagged in the output.
	heavySteal = 0.05
)

// processStart is taken as the program starts, so the output can show
// the time from process start to the first timed op.
var processStart = time.Now()

var workloadNames = []string{"session-mix", "city-mobile"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// load is a workload's concurrency. Every workload runs one closed-loop
// client with one shard worker: on a small shared VM a second busy
// thread measures the scheduler and the neighbours more than the
// program. city-mobile's references run parallel shard workers.
type load struct{ clients, workers, parallel int }

// workloadLoad is the workload's fixed load. It refuses a load the host
// cannot run without oversubscribing.
func workloadLoad(name string, nproc int) (load, error) {
	l := load{clients: 1, workers: 1, parallel: 1}
	if name == "city-mobile" {
		l.parallel = min(2, nproc)
	}
	if l.clients > nproc || l.workers > nproc || l.parallel > nproc {
		return load{}, fmt.Errorf("%s needs %d clients × %d workers (%d parallel); none may exceed nproc=%d",
			name, l.clients, l.workers, l.parallel, nproc)
	}
	return l, nil
}

func newWorkload(name string, seed int64, l load) workload {
	switch name {
	case "city-mobile":
		return &cityMobile{seeds: citySeeds(seed), workers: l.workers, parallel: l.parallel}
	}
	return &sessionMix{seed: seed}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: session-mix or city-mobile")
	seed := fs.Int64("seed", 1, "workload seed: the same seed runs the same ops")
	seconds := fs.Float64("seconds", 10, "length of each timed pass")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if !slices.Contains(workloadNames, *name) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %v)\n", *name, workloadNames)
		return 2
	}
	l, err := workloadLoad(*name, runtime.NumCPU())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w := newWorkload(*name, *seed, l)
	res, err := measure(w, *name, *seed, l, *seconds, *trace == 1, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure sets the workload up, runs its passes and returns the result
// line, printing the host record, every metric and the digest on the
// way. The untraced run is one plain pass. The traced run adds a pass
// under the CPU profiler and a pass with layer spans, and checks that
// every pass produced the same digest ops.
func measure(w workload, name string, seed int64, l load, seconds float64, traced bool, out, log io.Writer) (result, error) {
	h := newHostRecord("..")
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Commit)
	fmt.Fprintf(out, "run workload=%s seed=%d seconds=%g trace=%v clients=%d workers=%d parallel_workers=%d pass_gomaxprocs=%d\n",
		name, seed, seconds, traced, l.clients, l.workers, l.parallel, passProcs)

	var setups, setupCPU, steals []float64
	for r := 0; r < setupReps; r++ {
		t, cpu0 := startHostTimer(), cpuTime()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		span := t.stop()
		setups = append(setups, span.wall.Seconds())
		setupCPU = append(setupCPU, (cpuTime() - cpu0).Seconds())
		steals = append(steals, span.stealShare())
	}
	fmt.Fprintf(out, "setup wall_s=%.4f cpu_s=%.4f host_steal_share=%.3f since_process_start_s=%.4f peak_rss_mb=%.2f\n",
		setups, setupCPU, steals, time.Since(processStart).Seconds(), peakRSSMB())

	plain, err := runPass(w, seconds, plainPass, log)
	if err != nil {
		return result{}, err
	}
	e2e := map[string]float64{
		"setup_s":         median(setupCPU),
		"sim_per_wall":    median(plain.opRate),
		"op_ms_p50":       median(plain.opMs),
		"cpu_s_per_sim_s": ratio(plain.cpu.Seconds(), plain.sim.Seconds()),
		"peak_rss_mb":     peakRSSMB(),
	}
	res := result{Attempted: plain.attempted, Failed: plain.failed}
	checks := w.verify()
	for _, err := range checks {
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintln(log, "verify:", err)
		}
	}
	fmt.Fprintf(out, "verify checks=%d failed=%d\n", len(checks), res.Failed-plain.failed)
	report(out, plain, e2e, name)

	values := e2e
	defs := endToEndMetrics
	if traced {
		layers, failed, attempted, err := traceLayers(w, l, seconds, plain, out, log)
		if err != nil {
			return result{}, err
		}
		res.Attempted += attempted
		res.Failed += failed
		values, defs = layers, perLayerMetrics()
	}
	res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// report prints a pass's end-to-end metrics, error rate, tail latency,
// digest and simulated statistics.
func report(out io.Writer, p passResult, e2e map[string]float64, name string) {
	fmt.Fprintf(out, "pass plain ops=%d sim_s=%.0f wall_s=%.3f host_steal_cpu_s=%.2f host_steal_share=%.3f\n",
		len(p.opMs), p.sim.Seconds(), p.span.wall.Seconds(), p.span.steal.Seconds(), p.span.stealShare())
	fmt.Fprintf(out, "pass whole sim_per_wall=%.6g\n", p.simPerWall())
	if p.span.stealShare() > heavySteal {
		fmt.Fprintf(out, "warning: the hypervisor stole %.0f%% of the machine's CPU time during the pass; its wall-clock figures are slowed by the host's other load\n",
			100*p.span.stealShare())
	}
	for _, d := range endToEndMetrics {
		fmt.Fprintf(out, "metric %s = %.6g %s\n", d.Name, e2e[d.Name], d.Unit)
	}
	if q, v, ok := tailPercentile(p.opMs); ok {
		fmt.Fprintf(out, "metric op_ms_p%g = %.6g ms (n=%d)\n", q*100, v, len(p.opMs))
	} else {
		fmt.Fprintf(out, "metric op_ms_p90 = n/a: %d ops leave fewer than %d beyond p90\n", len(p.opMs), minBeyond)
	}
	fmt.Fprintf(out, "metric error_rate = %.6g (%d/%d)\n", ratio(float64(p.failed), float64(p.attempted)), p.failed, p.attempted)
	fmt.Fprintf(out, "digest %s ops=%d sha256=%s\n", name, len(p.records), p.digest())
	fmt.Fprintf(out, "stats %s\n", simStats(p.records))
}

// traceLayers runs the profiled and the traced pass, each half as long
// as the plain one, and derives every per-layer metric; it returns them
// with the ops the two passes ran and failed. A digest op whose record
// differs from the plain pass's fails.
func traceLayers(w workload, l load, seconds float64, plain passResult, out, log io.Writer) (map[string]float64, int, int, error) {
	prof, err := runPass(w, seconds/2, profiledPass, log)
	if err != nil {
		return nil, 0, 0, err
	}
	tr, err := runPass(w, seconds/2, tracedPass, log)
	if err != nil {
		return nil, 0, 0, err
	}
	failed := prof.failed + tr.failed
	attempted := prof.attempted + tr.attempted
	for _, p := range []passResult{prof, tr} {
		for i := range plain.records {
			if p.records[i].digest != plain.records[i].digest {
				failed++
				fmt.Fprintf(log, "digest op %d differs between the plain and a traced pass\n", i)
			}
		}
	}
	fmt.Fprintf(out, "digest traced sha256=%s profiled sha256=%s\n", tr.digest(), prof.digest())

	m, err := w.layers(tr.trace, tr.sim)
	if err != nil {
		fmt.Fprintln(log, "per-layer measurement failed:", err)
		failed++
		attempted++
		if m == nil {
			m = map[string]float64{}
		}
	}
	shares, err := cpuShares(prof.profile)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, mod := range profiledModules {
		m[mod+".cpu_share"] = shares[mod]
	}
	sim := plain.sim.Seconds()
	rt := plain.rt
	m["runtime.alloc_mb_per_sim_s"] = ratio(rt.allocBytes/(1<<20), sim)
	m["runtime.allocs_per_sim_s"] = ratio(rt.allocObjects, sim)
	m["runtime.gc_cycles_per_sim_s"] = ratio(rt.gcCycles, sim)
	m["runtime.gc_cpu_share"] = ratio(rt.cpuGC, rt.cpuTotal-rt.cpuIdle)
	m["runtime.idle_cpu_share"] = ratio(rt.cpuIdle, rt.cpuTotal)
	m["bench.trace_overhead"] = ratio(plain.simPerWall(), tr.simPerWall())

	for _, d := range perLayerMetrics() {
		fmt.Fprintf(out, "layer %s = %.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
	return m, failed, attempted, nil
}
