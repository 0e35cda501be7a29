package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"poi360/internal/network"
	"poi360/internal/obs"
)

// The city shape both city workloads run.
const (
	cityCells = 64
	cityUEs   = 256
	cityDwell = 3 * time.Second
	// citySeedSlots is how many distinct city seeds a workload cycles
	// through; the digest covers one op of each.
	citySeedSlots = 3
	// cityDuration is a city-mobile op's simulated length.
	cityDuration = 10 * time.Second
	// telemetryDuration is a telemetry op's simulated length.
	telemetryDuration = time.Second
	// layerReps is how many times each extra per-layer measurement of
	// the traced run repeats; it reports medians.
	layerReps = 3
)

func citySeeds(seed int64) []int64 {
	s := make([]int64, citySeedSlots)
	for k := range s {
		s[k] = int64(newRNG(seed, laneCitySeed, k).next() >> 1)
	}
	return s
}

func cityConfig(seed int64, workers int, d time.Duration) network.Config {
	return network.Config{
		Cells: cityCells, UEs: cityUEs, Duration: d, MeanDwell: cityDwell,
		Seed: seed, Workers: workers,
	}
}

// telemetryConfig is a telemetry op's city: city-mobile's shape,
// 4 UEs per cell and the same dwell, at a quarter of its cells.
func telemetryConfig(seed int64) network.Config {
	cfg := cityConfig(seed, 1, telemetryDuration)
	cfg.Cells, cfg.UEs = cityCells/4, cityUEs/4
	return cfg
}

// cityRecord fills the statistics a city op contributes to the digest.
func cityRecord(res *network.Result, digest []byte) opRecord {
	return opRecord{
		sim:       res.Duration,
		digest:    sha256.Sum256(digest),
		psnr:      math.NaN(),
		freeze:    [2]float64{res.FreezeFBCC, res.FreezeGCC},
		hasFreeze: [2]bool{true, true},
		handovers: res.Handovers,
	}
}

func traceCity(tr *layerTrace, res *network.Result, run time.Duration) {
	if tr == nil {
		return
	}
	tr.sample("network.run_ms", ms(run))
	tr.add("network.handovers", float64(res.Handovers))
	frames := 0
	for _, u := range res.PerUE {
		frames += u.FramesSent
	}
	tr.add("network.frames", float64(frames))
}

func cityLayers(tr *layerTrace, sim float64) map[string]float64 {
	return map[string]float64{
		"network.run_ms_p50":          tr.p50("network.run_ms"),
		"network.handovers_per_sim_s": ratio(tr.sums["network.handovers"], sim),
		"network.frames_per_sim_s":    ratio(tr.sums["network.frames"], sim),
	}
}

// timeCity runs one city and returns its wall time and fingerprint.
func timeCity(cfg network.Config) (time.Duration, string, error) {
	t0 := time.Now()
	res, err := network.Run(cfg)
	if err != nil {
		return 0, "", err
	}
	return time.Since(t0), res.Fingerprint(), nil
}

// cityMobile runs network.Run with mobility and telemetry off: the city
// hot path. Ops run one shard worker; after the timed pass, verify runs
// each seed slot at parallel workers, so the engine's byte-identity
// across worker counts is checked on the config of every op.
type cityMobile struct {
	seeds    []int64
	workers  int      // shard workers of an op
	parallel int      // shard workers of the cross-check and of the speed-up
	refs     []string // fingerprint of each seed slot at one worker
}

func (c *cityMobile) digestOps() int { return citySeedSlots }

// setup computes the reference fingerprint of each seed slot; these runs
// double as the warm-up.
func (c *cityMobile) setup() error {
	c.refs = make([]string, len(c.seeds))
	for k, seed := range c.seeds {
		runtime.GC()
		_, fp, err := timeCity(cityConfig(seed, c.workers, cityDuration))
		if err != nil {
			return err
		}
		c.refs[k] = fp
	}
	return nil
}

// verify runs each seed slot at c.parallel workers, with as many Ps, and
// checks its fingerprint against the single-worker reference. It runs
// after the timed pass because a parallel city's memory peak varies
// from run to run and would set peak_rss_mb.
func (c *cityMobile) verify() []error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.parallel))
	errs := make([]error, len(c.seeds))
	for k, seed := range c.seeds {
		_, fp, err := timeCity(cityConfig(seed, c.parallel, cityDuration))
		if err == nil && fp != c.refs[k] {
			err = fmt.Errorf("seed slot %d: fingerprint at Workers=%d differs from Workers=%d", k, c.parallel, c.workers)
		}
		errs[k] = err
	}
	return errs
}

func (c *cityMobile) op(i int, tr *layerTrace) (opRecord, error) {
	k := i % len(c.seeds)
	runtime.GC()
	t0 := time.Now()
	res, err := network.Run(cityConfig(c.seeds[k], c.workers, cityDuration))
	run := time.Since(t0)
	if err != nil {
		return opRecord{}, err
	}
	traceCity(tr, res, run)
	fp := res.Fingerprint()
	rec := cityRecord(res, []byte(fp))
	if fp != c.refs[k] {
		return rec, fmt.Errorf("fingerprint differs from the reference run of the same config")
	}
	return rec, nil
}

// layers adds the parallel-efficiency block and the telemetry block to
// the traced pass's city figures.
func (c *cityMobile) layers(tr *layerTrace, sim time.Duration) (map[string]float64, error) {
	m := cityLayers(tr, sim.Seconds())
	if err := c.parallelBlock(m); err != nil {
		return m, err
	}
	return m, telemetryBlock(c.seeds, m)
}

// parallelBlock measures the speed-up of one city at c.parallel workers
// over the same city at one worker, against the ceiling the hardware
// gives, k independent single-worker cities run at once.
func (c *cityMobile) parallelBlock(m map[string]float64) error {
	one := cityConfig(c.seeds[0], 1, cityDuration)
	many := cityConfig(c.seeds[0], c.parallel, cityDuration)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.parallel))
	k := min(2, runtime.NumCPU())
	var t1, tw, tk []float64
	for r := 0; r < layerReps; r++ {
		order := []network.Config{one, many}
		if r%2 == 1 {
			order[0], order[1] = many, one
		}
		for _, cfg := range order {
			d, fp, err := timeCity(cfg)
			if err != nil {
				return err
			}
			if fp != c.refs[0] {
				return fmt.Errorf("fingerprint at Workers=%d differs from the reference", cfg.Workers)
			}
			if cfg.Workers == 1 {
				t1 = append(t1, d.Seconds())
			} else {
				tw = append(tw, d.Seconds())
			}
		}
		d, err := concurrentCities(one, k, c.refs[0])
		if err != nil {
			return err
		}
		tk = append(tk, d.Seconds())
	}
	speedup := ratio(median(t1), median(tw))
	ceiling := ratio(float64(k)*median(t1), median(tk))
	m["network.worker_speedup"] = speedup
	m["network.parallel_ceiling"] = ceiling
	m["network.ceiling_efficiency"] = ratio(speedup, ceiling)
	return nil
}

// concurrentCities runs k copies of cfg at once and returns the wall
// time until the last one finished.
func concurrentCities(cfg network.Config, k int, want string) (time.Duration, error) {
	t0 := time.Now()
	err := forEach(k, k, func(int) error {
		_, fp, err := timeCity(cfg)
		if err == nil && fp != want {
			err = fmt.Errorf("concurrent city fingerprint differs from the reference")
		}
		return err
	})
	return time.Since(t0), err
}

// telemetryOps is how many telemetry ops the telemetry block runs.
const telemetryOps = 3 * citySeedSlots

// telemetryBlock measures the obs layer, on both its write and its read
// side, and adds the obs figures and the aggregate's counts to m. It
// runs telemetry ops on a quarter-size city at one P, as the passes run.
func telemetryBlock(seeds []int64, m map[string]float64) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(passProcs))
	t := &cityTelemetry{seeds: seeds}
	tr := newLayerTrace()
	var sim time.Duration
	for i := 0; i < telemetryOps; i++ {
		rec, err := t.op(i, tr)
		if err != nil {
			return fmt.Errorf("telemetry op %d: %w", i, err)
		}
		sim += rec.sim
	}
	tm, err := t.layers(tr, sim)
	for k, v := range tm {
		if !strings.HasPrefix(k, "network.") { // the city figures are city-mobile's own
			m[k] = v
		}
	}
	return err
}

// cityTelemetry runs a city with every telemetry stream on, written as
// P6T into memory, then replays that stream into a fresh aggregate; the
// replayed registry, episode summary and event count must equal the
// live ones.
type cityTelemetry struct {
	seeds []int64
	buf   bytes.Buffer // one op's P6T stream, reused across ops
}

// telemetryRun is one city run with telemetry streamed to buf.
type telemetryRun struct {
	res  *network.Result
	agg  *obs.ShardAgg
	wall time.Duration
}

func (c *cityTelemetry) buffer() *bytes.Buffer {
	c.buf.Reset()
	return &c.buf
}

func (c *cityTelemetry) write(cfg network.Config, buf *bytes.Buffer) (telemetryRun, error) {
	bw := obs.NewBinWriter(buf)
	bus := obs.NewBus()
	bus.DisableRetention()
	bus.SpillTo(bw, -1, 0)
	agg := obs.NewShardAgg()
	agg.Bind(-1, bus)
	cfg.Obs, cfg.Agg, cfg.Sink = bus, agg, bw
	t0 := time.Now()
	res, err := network.Run(cfg)
	wall := time.Since(t0)
	if err == nil {
		err = bw.Err()
	}
	return telemetryRun{res: res, agg: agg, wall: wall}, err
}

func (c *cityTelemetry) op(i int, tr *layerTrace) (opRecord, error) {
	buf := c.buffer()
	w, err := c.write(telemetryConfig(c.seeds[i%len(c.seeds)]), buf)
	if err != nil {
		return opRecord{}, err
	}
	t0 := time.Now()
	replayed := obs.NewShardAgg()
	var events int64
	n, err := obs.ReadBinary(bytes.NewReader(buf.Bytes()), replayed, func(int32, *obs.Event) { events++ })
	replay := time.Since(t0)
	if err != nil {
		return opRecord{}, fmt.Errorf("replay: %w", err)
	}

	live := w.agg.Merged()
	liveTable := live.Table().String()
	var liveEvents int64
	for k := obs.Kind(0); k < obs.NumKinds; k++ {
		liveEvents += live.Count(k)
	}
	if tr != nil {
		traceCity(tr, w.res, w.wall)
		tr.sample("obs.replay_ms", ms(replay))
		tr.add("obs.replay_ns", float64(replay))
		tr.add("obs.bytes", float64(buf.Len()))
		tr.add("obs.records", float64(n))
		tr.add("lte.grants", float64(live.Count(obs.LTEGrant)))
		tr.add("lte.diag", float64(live.Count(obs.LTEDiag)))
		tr.add("lte.drops", float64(live.Count(obs.LTEDrop)))
		tr.add("ratecontrol.watchdog_trips", float64(live.Count(obs.FBCCWatchdog)))
	}

	var digest []byte
	if i < citySeedSlots {
		stream := sha256.Sum256(buf.Bytes())
		digest = fmt.Appendf(nil, "%s%s%+v%x", w.res.Fingerprint(), liveTable, w.agg.Summary(), stream)
	}
	rec := cityRecord(w.res, digest)
	switch {
	case events != liveEvents:
		return rec, fmt.Errorf("replayed %d events, live run emitted %d", events, liveEvents)
	case replayed.Merged().Table().String() != liveTable:
		return rec, fmt.Errorf("replayed registry differs from the live aggregate")
	case replayed.Summary() != w.agg.Summary():
		return rec, fmt.Errorf("replayed episode summary differs from the live one")
	}
	return rec, nil
}

// layers adds the write overhead: the city's time with telemetry on
// over the same city with it off.
func (c *cityTelemetry) layers(tr *layerTrace, sim time.Duration) (map[string]float64, error) {
	s := sim.Seconds()
	m := cityLayers(tr, s)
	records := tr.sums["obs.records"]
	m["obs.bytes_per_sim_s"] = ratio(tr.sums["obs.bytes"], s)
	m["obs.records_per_sim_s"] = ratio(records, s)
	m["obs.replay_ms_p50"] = tr.p50("obs.replay_ms")
	m["obs.replay_ns_per_record"] = ratio(tr.sums["obs.replay_ns"], records)
	m["lte.grants_per_sim_s"] = ratio(tr.sums["lte.grants"], s)
	m["lte.diag_per_sim_s"] = ratio(tr.sums["lte.diag"], s)
	m["lte.drops_per_sim_s"] = ratio(tr.sums["lte.drops"], s)
	m["ratecontrol.watchdog_trips_per_sim_s"] = ratio(tr.sums["ratecontrol.watchdog_trips"], s)

	cfg := telemetryConfig(c.seeds[0])
	var on, off []float64
	for r := 0; r < layerReps; r++ {
		var d time.Duration
		var fp string
		var err error
		if r%2 == 1 { // alternate which side runs first
			if d, fp, err = timeCity(cfg); err != nil {
				return m, err
			}
		}
		buf := c.buffer()
		w, err := c.write(cfg, buf)
		if err != nil {
			return m, err
		}
		if r%2 == 0 {
			if d, fp, err = timeCity(cfg); err != nil {
				return m, err
			}
		}
		if fp != w.res.Fingerprint() {
			return m, fmt.Errorf("telemetry changed the city trajectory")
		}
		on = append(on, w.wall.Seconds())
		off = append(off, d.Seconds())
	}
	m["obs.write_overhead"] = ratio(median(on), median(off))
	return m, nil
}
