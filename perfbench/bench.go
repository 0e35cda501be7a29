package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one closed-loop traffic mix. Ops are numbered from 0 and
// op i is a pure function of the workload seed and i, so every pass and
// every client count runs the same sequence.
type workload interface {
	// setup generates the inputs, runs the warm-up op and computes the
	// references the checks compare against. It is timed and repeated;
	// each call starts afresh.
	setup() error
	// op runs op i and checks its output; a returned error is a failed
	// op. tr is non-nil on the traced pass, where the op records its
	// layer spans and counts.
	op(i int, tr *layerTrace) (opRecord, error)
	// verify runs the checks that would disturb the timed pass, after
	// it; each element is one check, and a non-nil one a failed op.
	verify() []error
	// digestOps is how many leading ops make up the trajectory digest.
	digestOps() int
	// layers turns the traced pass's spans into per-layer metrics and
	// runs the workload's own per-layer measurements.
	layers(tr *layerTrace, sim time.Duration) (map[string]float64, error)
}

// opRecord is what an op leaves behind for the digest and the
// simulated statistics. Only digest ops fill digest and the statistics.
type opRecord struct {
	sim       time.Duration
	digest    [sha256.Size]byte
	psnr      float64    // mean ROI-PSNR in dB; NaN where the op has none
	freeze    [2]float64 // freeze ratio by rate control: FBCC, GCC
	hasFreeze [2]bool
	handovers int
}

// layerTrace accumulates the per-layer observations of the traced pass.
type layerTrace struct {
	samples map[string][]float64
	sums    map[string]float64
}

func newLayerTrace() *layerTrace {
	return &layerTrace{samples: map[string][]float64{}, sums: map[string]float64{}}
}

func (t *layerTrace) sample(name string, v float64) { t.samples[name] = append(t.samples[name], v) }
func (t *layerTrace) add(name string, v float64)    { t.sums[name] += v }

func (t *layerTrace) p50(name string) float64 { return median(t.samples[name]) }

type passMode int

const (
	plainPass    passMode = iota // end-to-end metrics
	profiledPass                 // CPU profile for the module shares
	tracedPass                   // layer spans
)

func (m passMode) String() string {
	return [...]string{"plain", "profiled", "traced"}[m]
}

// passResult is one timed closed-loop pass.
type passResult struct {
	opMs      []float64
	opRate    []float64     // each op's simulated seconds per wall second
	sim       time.Duration // simulated time of the ops completed in the timed phase
	span      hostSpan
	cpu       time.Duration
	attempted int
	failed    int
	records   []opRecord // the digest ops, by index
	rt        runtimeSample
	trace     *layerTrace
	profile   []byte
}

// simPerWall is simulated seconds per wall second of the whole pass.
func (p passResult) simPerWall() float64 { return ratio(p.sim.Seconds(), p.span.wall.Seconds()) }

// digest hashes the digest ops' records in index order.
func (p passResult) digest() string {
	h := sha256.New()
	for _, r := range p.records {
		h.Write(r.digest[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// passProcs is GOMAXPROCS during a pass.
const passProcs = 1

// runPass runs ops 0, 1, 2, … one after another, each starting when
// the previous one returned, for the given time: no op starts after the
// deadline. Digest ops the timed phase did not reach are run
// afterwards, untimed, so every pass digests the same ops.
func runPass(w workload, seconds float64, mode passMode, log io.Writer) (passResult, error) {
	res := passResult{records: make([]opRecord, w.digestOps())}
	var prof bytes.Buffer
	if mode == tracedPass {
		res.trace = newLayerTrace()
	}
	// One P: the client and the collector share one vCPU, so a pass does
	// not also measure the state of the other one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(passProcs))
	runtime.GC() // start every pass from a collected heap; refreshes /cpu/classes
	rt0, cpu0 := readRuntime(), cpuTime()
	if mode == profiledPass {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return res, fmt.Errorf("cpu profile: %w", err)
		}
	}
	timer := startHostTimer()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	i := 0
	for ; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		rec, err := safeOp(w, i, res.trace)
		d := time.Since(t0)
		res.opMs = append(res.opMs, ms(d))
		res.opRate = append(res.opRate, ratio(rec.sim.Seconds(), d.Seconds()))
		res.sim += rec.sim
		if i < len(res.records) {
			res.records[i] = rec
		}
		res.attempted++
		if err != nil {
			res.failed++
			logFailure(log, mode, i, err, res.failed)
		}
	}
	res.span = timer.stop()
	if mode == profiledPass {
		pprof.StopCPUProfile()
		res.profile = prof.Bytes()
	}
	res.cpu = cpuTime() - cpu0
	runtime.GC()
	res.rt = readRuntime().sub(rt0)

	var fill *layerTrace
	if mode == tracedPass {
		fill = newLayerTrace() // traced like the pass, but kept out of its numbers
	}
	for ; i < len(res.records); i++ {
		rec, err := safeOp(w, i, fill)
		res.records[i] = rec
		res.attempted++
		if err != nil {
			res.failed++
			logFailure(log, mode, i, err, res.failed)
		}
	}
	return res, nil
}

// forEach runs fn(0) … fn(n-1) on up to threads goroutines and returns
// their errors joined.
func forEach(n, threads int, fn func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := fn(i); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// safeOp runs one op, turning a panic into a failed op so one broken
// expectation cannot take down the run.
func safeOp(w workload, i int, tr *layerTrace) (rec opRecord, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return w.op(i, tr)
}

func logFailure(log io.Writer, mode passMode, i int, err error, nth int) {
	const maxLogged = 5
	if nth <= maxLogged {
		fmt.Fprintf(log, "%s pass: op %d failed: %v\n", mode, i, err)
	}
}

// simStats renders the simulated statistics of the digest ops: a
// speed-only change must leave them, like the digest, unchanged.
func simStats(recs []opRecord) string {
	var psnr, n float64
	var freeze [2]float64
	var nf [2]int
	ho := 0
	for _, r := range recs {
		if !math.IsNaN(r.psnr) {
			psnr += r.psnr
			n++
		}
		for k := range freeze {
			if r.hasFreeze[k] {
				freeze[k] += r.freeze[k]
				nf[k]++
			}
		}
		ho += r.handovers
	}
	var b strings.Builder
	if n > 0 {
		fmt.Fprintf(&b, "roi_psnr_mean_db=%.6f ", psnr/n)
	}
	for k, name := range [2]string{"fbcc", "gcc"} {
		if nf[k] > 0 {
			fmt.Fprintf(&b, "freeze_%s=%.6f ", name, freeze[k]/float64(nf[k]))
		}
	}
	fmt.Fprintf(&b, "handovers=%d", ho)
	return b.String()
}
