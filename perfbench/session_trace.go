package main

import (
	"runtime"
	"sync"
	"time"

	"poi360/internal/lte"
	"poi360/internal/netsim"
	"poi360/internal/session"
	"poi360/internal/simclock"
)

// schedModules are the modules whose scheduled callbacks the traced
// session-mix pass reports; callbacks from any other caller (faults
// scripts, for one) still count toward the simclock totals.
var schedModules = [nSchedModules]string{"session", "rtp", "netsim", "lte", "ratecontrol"}

const nSchedModules = 5

// runComposedSession is session.Run's cellular path composed from the
// layers' public functions, with spans at each boundary: session.New,
// netsim.NewCellular and Session.Attach (setup), Clock.Run, and
// Session.Result. The clock the layers see is a spanClock, and the
// transport's deliver callbacks are wrapped, so each dispatched event is
// timed and charged to the module that scheduled it. The op checks the
// result against session.Run's for the sampled ops.
func runComposedSession(cfg session.Config, tr *layerTrace) (*session.Result, error) {
	t0 := time.Now()
	s, err := session.New(cfg)
	if err != nil {
		return nil, err
	}
	cfg = s.Config()
	clk := &spanClock{Clock: simclock.New()}
	lcfg := lte.DefaultConfig(cfg.Cell)
	lcfg.Profile.Seed = session.DeriveStream(cfg.Seed, "lte")
	if !cfg.Faults.Empty() {
		lcfg.CapacityFault = cfg.Faults.CapacityFactor
		lcfg.DiagFault = cfg.Faults.DiagStalled
	}
	fwd := clk.deliver(s.DeliverForward, tr, "session.deliver_fwd_us")
	rev := clk.deliver(s.DeliverFeedback, tr, "session.deliver_rev_us")
	cell, err := netsim.NewCellular(clk, lcfg, cfg.Path, fwd, rev)
	if err != nil {
		return nil, err
	}
	if err := s.Attach(clk, cell); err != nil {
		return nil, err
	}
	t1 := time.Now()
	clk.Run(cfg.Duration)
	t2 := time.Now()
	res := s.Result()
	t3 := time.Now()

	tr.sample("session.setup_ms", ms(t1.Sub(t0)))
	tr.sample("simclock.run_ms", ms(t2.Sub(t1)))
	tr.sample("session.result_ms", ms(t3.Sub(t2)))
	var events int64
	for m, name := range schedModules {
		tr.add(name+".events", float64(clk.events[m]))
		tr.add(name+".self_ns", float64(clk.self[m]))
	}
	for _, n := range clk.events {
		events += n
	}
	tr.add("simclock.events", float64(events))
	tr.add("simclock.self_ns", float64(t2.Sub(t1)-clk.callbacks))
	tr.add("simclock.oneshot_scheduled", float64(clk.scheduled))
	tr.add("simclock.oneshot_dispatched", float64(clk.dispatched))
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// otherModule indexes callbacks whose scheduler is not in schedModules.
const otherModule = nSchedModules

// spanClock is a simclock.Scheduler over a private simulation Clock that
// wraps every callback it is handed: it overrides each Scheduler method
// that takes one, and Now and Run come from the embedded Clock. Wrapping
// changes no event's time or order: each call forwards to the Clock
// exactly once, in the same order.
type spanClock struct {
	*simclock.Clock

	events     [nSchedModules + 1]int64         // dispatched callbacks by scheduling module
	self       [nSchedModules + 1]time.Duration // their time, less nested deliveries
	callbacks  time.Duration                    // all dispatched callback time
	nested     time.Duration                    // deliver-callback time inside callbacks
	scheduled  int64                            // one-shot events scheduled
	dispatched int64                            // one-shot events dispatched
	deliveries int64
}

var _ simclock.Scheduler = (*spanClock)(nil)

// callerModules caches the module of each scheduling call site.
var callerModules sync.Map // pc → module index

// caller returns the module index of the code that called the spanClock
// method that called caller.
func caller() int {
	var pc [1]uintptr
	if runtime.Callers(3, pc[:]) == 0 {
		return otherModule
	}
	if m, ok := callerModules.Load(pc[0]); ok {
		return m.(int)
	}
	f, _ := runtime.CallersFrames(pc[:]).Next()
	m := otherModule
	mod := moduleOf(f.Function)
	for k, name := range schedModules {
		if name == mod {
			m = k
		}
	}
	callerModules.Store(pc[0], m)
	return m
}

// begin and end bracket one dispatched callback.
func (c *spanClock) begin() (time.Time, time.Duration) { return time.Now(), c.nested }

func (c *spanClock) end(m int, oneShot bool, t0 time.Time, nested time.Duration) {
	d := time.Since(t0)
	c.events[m]++
	c.callbacks += d
	c.self[m] += d - (c.nested - nested)
	if oneShot {
		c.dispatched++
	}
}

// deliver wraps a transport deliver callback: its time is the session's
// receive path, nested inside the network callback that delivers.
func (c *spanClock) deliver(fn func(any), tr *layerTrace, span string) func(any) {
	const sampleEvery = 16 // keep one delivery span in this many
	const sess = 0         // schedModules[0]
	return func(p any) {
		t0 := time.Now()
		fn(p)
		d := time.Since(t0)
		c.nested += d
		c.self[sess] += d
		if c.deliveries++; c.deliveries%sampleEvery == 0 {
			tr.sample(span, float64(d)/float64(time.Microsecond))
		}
	}
}

func (c *spanClock) Schedule(at time.Duration, fn func()) simclock.Handle {
	m := caller()
	c.scheduled++
	return c.Clock.Schedule(at, func() {
		t0, n := c.begin()
		fn()
		c.end(m, true, t0, n)
	})
}

func (c *spanClock) ScheduleAfter(d time.Duration, fn func()) simclock.Handle {
	m := caller()
	c.scheduled++
	return c.Clock.ScheduleAfter(d, func() {
		t0, n := c.begin()
		fn()
		c.end(m, true, t0, n)
	})
}

func (c *spanClock) SchedulePayload(at time.Duration, fn func(any), arg any) simclock.Handle {
	m := caller()
	c.scheduled++
	return c.Clock.SchedulePayload(at, func(a any) {
		t0, n := c.begin()
		fn(a)
		c.end(m, true, t0, n)
	}, arg)
}

func (c *spanClock) NewCode(h func(any)) simclock.Code {
	m := caller()
	return c.Clock.NewCode(func(a any) {
		t0, n := c.begin()
		h(a)
		c.end(m, true, t0, n)
	})
}

func (c *spanClock) ScheduleCode(at time.Duration, code simclock.Code, arg any) simclock.Handle {
	c.scheduled++
	return c.Clock.ScheduleCode(at, code, arg)
}

func (c *spanClock) Ticker(period time.Duration, fn func()) (stop func()) {
	m := caller()
	return c.Clock.Ticker(period, func() {
		t0, n := c.begin()
		fn()
		c.end(m, false, t0, n)
	})
}
