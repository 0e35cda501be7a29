package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"poi360/internal/session"
)

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	for i := 0; i < 300; i++ {
		if a, b := sessionSpecFor(7, i), sessionSpecFor(7, i); a != b {
			t.Fatalf("op %d: same seed gave %+v and %+v", i, a, b)
		}
		if sessionSampled(7, i) != sessionSampled(7, i) {
			t.Fatalf("op %d: sample choice not repeatable", i)
		}
	}
	for _, seed := range []int64{7, 8} {
		n := 0
		for i := 0; i < 2*sessionSampleSpan; i++ {
			if sessionSampled(seed, i) {
				n++
			}
		}
		if n != sessionSampleSpan/sessionSampleEvery {
			t.Fatalf("seed %d samples %d ops, want %d", seed, n, sessionSampleSpan/sessionSampleEvery)
		}
	}
	if !reflect.DeepEqual(citySeeds(7), citySeeds(7)) {
		t.Fatal("city seeds not repeatable")
	}
	if reflect.DeepEqual(citySeeds(7), citySeeds(8)) {
		t.Fatal("different workload seeds gave the same city seeds")
	}
	differ, faulted := false, 0
	cells := map[int]bool{}
	for i := 0; i < 300; i++ {
		s := sessionSpecFor(7, i)
		differ = differ || s != sessionSpecFor(8, i)
		cells[s.Cell] = true
		if s.Fault != "" {
			faulted++
		}
		if _, err := s.config(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if !differ {
		t.Fatal("different workload seeds gave the same session ops")
	}
	if len(cells) != len(cellProfiles) {
		t.Fatalf("300 ops drew only %d of %d cell profiles", len(cells), len(cellProfiles))
	}
	if faulted < 30 || faulted > 90 {
		t.Fatalf("%d of 300 ops carry faults, want about 20%%", faulted)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n     int
		q, v  float64
		valid bool
	}{
		{99, 0, 0, false},
		{100, 0.9, 90, true},
		{999, 0.9, 900, true},
		{1000, 0.99, 990, true},
		{10000, 0.999, 9990, true},
	}
	for _, c := range cases {
		q, v, ok := tailPercentile(seq(c.n))
		if ok != c.valid || q != c.q || v != c.v {
			t.Errorf("n=%d: got (p%g, %g, %v), want (p%g, %g, %v)", c.n, q*100, v, ok, c.q*100, c.v, c.valid)
		}
		if c.valid {
			if _, beyond := quantile(seq(c.n), q); beyond < minBeyond {
				t.Errorf("n=%d: p%g has only %d samples beyond", c.n, q*100, beyond)
			}
		}
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the names test reads.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nbenchmark emits:\n%v", bj.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayerMetrics()) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nbenchmark emits:\n%v", bj.PerLayer, perLayerMetrics())
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads in BENCHMARK.json %v, benchmark runs %v", names, workloadNames)
	}
}

// TestEmittedMetrics runs the benchmark briefly, untraced and traced,
// and checks the result line carries exactly the declared metrics.
func TestEmittedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	for trace, defs := range map[string][]metricDef{"0": endToEndMetrics, "1": perLayerMetrics()} {
		var out, log bytes.Buffer
		code := run([]string{"--workload", "session-mix", "--seed", "3", "--seconds", "0.3", "--trace", trace}, &out, &log)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, log.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %s: result %+v\n%s", trace, res, log.String())
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics emitted, %d declared", trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s: got %+v (present %v), want unit %s", trace, d.Name, m, ok, d.Unit)
			}
		}
	}
}

// fakeWorkload fails ops by returning an error or by panicking.
type fakeWorkload struct{}

func (fakeWorkload) setup() error    { return nil }
func (fakeWorkload) verify() []error { return nil }
func (fakeWorkload) digestOps() int  { return 4 }
func (fakeWorkload) layers(*layerTrace, time.Duration) (map[string]float64, error) {
	return nil, nil
}
func (fakeWorkload) op(i int, _ *layerTrace) (opRecord, error) {
	time.Sleep(time.Millisecond)
	switch i % 4 {
	case 1:
		return opRecord{sim: time.Second}, errors.New("broken expectation")
	case 3:
		panic("op blew up")
	}
	return opRecord{sim: time.Second}, nil
}

func TestBrokenExpectationIsAFailedOp(t *testing.T) {
	var log bytes.Buffer
	p, err := runPass(fakeWorkload{}, 0.05, plainPass, &log)
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted < 4 {
		t.Fatalf("attempted %d ops, want at least the 4 digest ops", p.attempted)
	}
	want := 0
	for i := 0; i < p.attempted; i++ {
		if i%2 == 1 {
			want++
		}
	}
	if p.failed != want {
		t.Fatalf("failed %d of %d ops, want %d\n%s", p.failed, p.attempted, want, log.String())
	}
	if len(p.opRate) != len(p.opMs) || median(p.opRate) <= 0 || median(p.opRate) > 1000 {
		t.Fatalf("op rates %v for %d timed ops of 1 simulated s and ≥ 1 ms each", p.opRate, len(p.opMs))
	}

	// A real workload whose reference disagrees fails the op too.
	m := &sessionMix{seed: 1, refs: map[int]*session.Result{0: {}}}
	if _, err := m.op(0, nil); err == nil || !strings.Contains(err.Error(), "reference") {
		t.Fatalf("op against a wrong reference: err = %v", err)
	}
}

func TestWorkloadLoadRefusesMoreThreadsThanCPUs(t *testing.T) {
	for _, name := range workloadNames {
		if l, err := workloadLoad(name, 1); err != nil || l != (load{1, 1, 1}) {
			t.Errorf("%s on 1 CPU: %+v, %v", name, l, err)
		}
		if l, err := workloadLoad(name, 0); err == nil {
			t.Errorf("%s on 0 CPUs: accepted %+v", name, l)
		}
	}
	if l, err := workloadLoad("city-mobile", 2); err != nil || l != (load{1, 1, 2}) {
		t.Errorf("city-mobile on 2 CPUs: %+v, %v", l, err)
	}
}

func TestParseSteal(t *testing.T) {
	stat := "cpu  67560 0 5169 268370 352 0 1722 12121 0 0\n" +
		"cpu0 33780 0 2584 134185 176 0 861 6060 0 0\n" +
		"cpu1 33780 0 2585 134185 176 0 861 6061 0 0\n" +
		"intr 1 2 3\n"
	steal, cpus := parseSteal(stat)
	if steal != 121210*time.Millisecond || cpus != 2 {
		t.Fatalf("parseSteal = %v over %d CPUs, want 2m1.21s over 2", steal, cpus)
	}
	if steal, cpus := parseSteal("cpu 1 2 3\n"); steal != 0 || cpus != 0 {
		t.Fatalf("short line: %v over %d CPUs, want nothing", steal, cpus)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"poi360/internal/lte.(*Cell).pfGrant":                 "lte",
		"poi360/internal/simclock.(*Clock).Run":               "simclock",
		"poi360/internal/network.(*epochPool).launch.func1":   "network",
		"poi360/internal/obs.(*Replayer).Feed":                "obs",
		"poi360/internal/seeds.(*SplitMix).NormFloat64":       "seeds",
		"poi360/internal/ratecontrol.(*GCCReceiver).OnPacket": "ratecontrol",
		"main.(*spanClock).end":                               "bench",
		"math/rand.(*Rand).Float64":                           "",
		"runtime.mallocgc":                                    "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// protoBuf is a minimal protobuf encoder for building test profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(num int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) packed(num int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(num, q)
}

func TestCPUSharesGroupSamplesByModule(t *testing.T) {
	strs := []string{"", "samples", "count", "runtime.mallocgc",
		"poi360/internal/lte.(*Cell).pfGrant", "math/rand.(*Rand).Float64",
		"poi360/internal/simclock.(*Clock).Run", "runtime.gcBgMarkWorker"}
	var p protoBuf
	fn := func(id, name uint64) {
		var f protoBuf
		f.varint(1, id)
		f.varint(2, name)
		p.bytes(5, f.b)
	}
	loc := func(id uint64, fns ...uint64) {
		var l protoBuf
		l.varint(1, id)
		for _, f := range fns {
			var line protoBuf
			line.varint(1, f)
			l.bytes(4, line.b)
		}
		p.bytes(4, l.b)
	}
	sample := func(value uint64, locs ...uint64) {
		var s protoBuf
		if len(locs) > 2 {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.packed(2, value, value*10_000_000)
		p.bytes(2, s.b)
	}
	for id := uint64(1); id <= 5; id++ {
		fn(id, id+2) // function id k is named strs[k+2]
	}
	loc(1, 1)          // runtime.mallocgc
	loc(2, 3, 2)       // math/rand inlined into lte
	loc(3, 4)          // simclock
	loc(4, 5)          // GC worker
	sample(3, 1, 2, 3) // malloc ← lte ← simclock: lte, packed
	sample(1, 3)       // simclock, unpacked
	sample(4, 4)       // GC worker: runtime
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()

	shares, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"lte": 0.375, "simclock": 0.125, "runtime": 0.5}
	if fmt.Sprint(shares) != fmt.Sprint(want) {
		t.Fatalf("shares = %v, want %v", shares, want)
	}
	if _, err := cpuShares(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}
