package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"time"

	"poi360/internal/faults"
	"poi360/internal/headmotion"
	"poi360/internal/lte"
	"poi360/internal/metrics"
	"poi360/internal/session"
)

const (
	sessionDuration = 30 * time.Second
	// sessionDigestOps is the number of leading ops the digest covers.
	sessionDigestOps = 64
	// One op in each block of sessionSampleEvery below sessionSampleSpan,
	// chosen by the seed, is re-checked against a reference run; a fixed
	// count keeps the set-up the same size for every seed.
	sessionSampleSpan  = 512
	sessionSampleEvery = 16
	// sessionFaultEvery: one op in this many carries a fault scenario.
	sessionFaultEvery = 5
)

// cellProfiles are the radio environments a session op draws from.
var cellProfiles = []lte.CellProfile{
	lte.ProfileBusy, lte.ProfileCampus, lte.ProfileModerate, lte.ProfileStrongIdle, lte.ProfileWeak,
}

var sessionSchemes = []session.SchemeKind{
	session.SchemeAdaptive, session.SchemePyramid, session.SchemeConduit, session.SchemeFixed,
}

// fixedCs are the single-mode compression levels a Fixed op draws from.
var fixedCs = []float64{1.4, 1.8}

// faultScenarios is kept here rather than read from the faults package so
// that adding a scenario there does not change this benchmark's inputs.
var faultScenarios = []string{
	"capacity-step", "diag-stall", "feedback-loss", "feedback-storm",
	"handover", "roi-freeze", "storm",
}

// sessionSpec is one session-mix op's settings.
type sessionSpec struct {
	Cell   int // index into cellProfiles
	RC     session.RCKind
	Scheme session.SchemeKind
	FixedC float64 // Fixed scheme only
	User   int     // index into headmotion.Users
	Fault  string  // faults scenario name, "" for none
	Seed   int64
}

// sessionSpecFor draws op i's settings from the workload seed.
func sessionSpecFor(seed int64, i int) sessionSpec {
	r := newRNG(seed, laneSessionSpec, i)
	s := sessionSpec{
		Cell:   r.intn(len(cellProfiles)),
		RC:     []session.RCKind{session.RCFBCC, session.RCGCC}[r.intn(2)],
		Scheme: sessionSchemes[r.intn(len(sessionSchemes))],
		User:   r.intn(len(headmotion.Users)),
		Seed:   int64(r.next() >> 1),
	}
	if s.Scheme == session.SchemeFixed {
		s.FixedC = fixedCs[r.intn(len(fixedCs))]
	}
	if r.intn(sessionFaultEvery) == 0 {
		s.Fault = faultScenarios[r.intn(len(faultScenarios))]
	}
	return s
}

func (s sessionSpec) config() (session.Config, error) {
	cfg := session.Config{
		Duration: sessionDuration,
		Network:  session.Cellular,
		Cell:     cellProfiles[s.Cell],
		RC:       s.RC,
		Scheme:   s.Scheme,
		FixedC:   s.FixedC,
		User:     headmotion.Users[s.User],
		Seed:     s.Seed,
	}
	if s.Fault != "" {
		script, err := faults.MakeScenario(s.Fault, sessionDuration)
		if err != nil {
			return cfg, err
		}
		cfg.Faults = script
	}
	return cfg, nil
}

// sessionSampled reports whether op i is re-checked against a reference.
func sessionSampled(seed int64, i int) bool {
	block := i / sessionSampleEvery
	return i < sessionSampleSpan && newRNG(seed, laneSessionSample, block).intn(sessionSampleEvery) == i%sessionSampleEvery
}

// sessionMix runs single-UE cellular sessions through session.Run: the
// paper-figure path.
type sessionMix struct {
	seed int64
	refs map[int]*session.Result // sampled op → its reference run
}

func (m *sessionMix) digestOps() int { return sessionDigestOps }

// setup runs the reference sessions of the sampled ops; they double as
// the warm-up.
func (m *sessionMix) setup() error {
	m.refs = map[int]*session.Result{}
	for i := 0; i < sessionSampleSpan; i++ {
		if !sessionSampled(m.seed, i) {
			continue
		}
		cfg, err := sessionSpecFor(m.seed, i).config()
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		if m.refs[i], err = session.Run(cfg); err != nil {
			return fmt.Errorf("op %d reference: %w", i, err)
		}
	}
	return nil
}

func (m *sessionMix) verify() []error { return nil }

func (m *sessionMix) op(i int, tr *layerTrace) (opRecord, error) {
	rec := opRecord{psnr: math.NaN()}
	spec := sessionSpecFor(m.seed, i)
	cfg, err := spec.config()
	if err != nil {
		return rec, err
	}
	var res *session.Result
	if tr != nil {
		res, err = runComposedSession(cfg, tr)
	} else {
		res, err = session.Run(cfg)
	}
	if err != nil {
		return rec, err
	}
	rec.sim = cfg.Duration
	if err := checkSession(res); err != nil {
		return rec, err
	}
	if ref, ok := m.refs[i]; ok && !reflect.DeepEqual(res, ref) {
		return rec, fmt.Errorf("result differs from the reference session.Run of the same config")
	}
	if i < sessionDigestOps {
		rec.digest = sessionDigest(res)
		rec.psnr = mean(res.ROIPSNRs)
		k := 1
		if spec.RC == session.RCFBCC {
			k = 0
		}
		rec.freeze[k], rec.hasFreeze[k] = res.FreezeRatio(), true
	}
	return rec, nil
}

// checkSession is the sanity check every session result must pass.
// Result counters cover only the post-warmup window, and frames in
// flight at the warmup instant are delivered inside it without having
// been sent inside it, so frames are conserved over the whole session:
// the window's delivered plus lost frames cannot exceed every frame the
// sender captured.
func checkSession(r *session.Result) error {
	captured := int(r.Config.Duration / r.Config.Video.FrameInterval())
	if r.FramesSent < 1 || r.FramesSent > captured {
		return fmt.Errorf("frames sent %d outside [1, %d]", r.FramesSent, captured)
	}
	if r.FramesDelivered < 0 || r.FramesLost < 0 || r.FramesDelivered+r.FramesLost > captured {
		return fmt.Errorf("frames delivered %d + lost %d exceed the %d the session captured",
			r.FramesDelivered, r.FramesLost, captured)
	}
	if len(r.ROIPSNRs) == 0 {
		return fmt.Errorf("no frame displayed")
	}
	for _, p := range r.ROIPSNRs {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("non-finite ROI-PSNR %v", p)
		}
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// sessionDigest hashes every recorded trajectory field of a result.
func sessionDigest(r *session.Result) [sha256.Size]byte {
	var b []byte
	i64 := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	f64 := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	for _, v := range []int64{
		int64(r.FramesSent), int64(r.FramesDelivered), int64(r.FramesLost), r.PacketDrops,
		int64(r.FBCCOveruses), int64(r.FBCCDegradations), int64(r.StaleFeedback), r.DiagStalled,
	} {
		i64(v)
	}
	i64(int64(len(r.FrameDelays)))
	for _, d := range r.FrameDelays {
		i64(int64(d))
	}
	for _, s := range [][]float64{r.ROIPSNRs, r.Throughput} {
		i64(int64(len(s)))
		for _, v := range s {
			f64(v)
		}
	}
	for _, series := range [][]metrics.TimedSample{r.ROILevels, r.Mismatch, r.Modes, r.VideoRate, r.RTPRate} {
		i64(int64(len(series)))
		for _, s := range series {
			i64(int64(s.At))
			f64(s.V)
		}
	}
	i64(int64(len(r.Diag)))
	for _, d := range r.Diag {
		i64(int64(d.At))
		i64(int64(d.BufferBytes))
		f64(d.TBSRate)
	}
	return sha256.Sum256(b)
}

func (m *sessionMix) layers(tr *layerTrace, sim time.Duration) (map[string]float64, error) {
	s := sim.Seconds()
	out := map[string]float64{
		"session.setup_ms_p50":       tr.p50("session.setup_ms"),
		"simclock.run_ms_p50":        tr.p50("simclock.run_ms"),
		"session.result_ms_p50":      tr.p50("session.result_ms"),
		"simclock.events_per_sim_s":  ratio(tr.sums["simclock.events"], s),
		"simclock.dispatch_ratio":    ratio(tr.sums["simclock.oneshot_dispatched"], tr.sums["simclock.oneshot_scheduled"]),
		"simclock.self_ms_per_sim_s": ratio(tr.sums["simclock.self_ns"]/1e6, s),
		"session.deliver_fwd_us_p50": tr.p50("session.deliver_fwd_us"),
		"session.deliver_rev_us_p50": tr.p50("session.deliver_rev_us"),
	}
	for _, name := range schedModules {
		out[name+".events_per_sim_s"] = ratio(tr.sums[name+".events"], s)
		out[name+".self_ms_per_sim_s"] = ratio(tr.sums[name+".self_ns"]/1e6, s)
	}
	return out, nil
}
