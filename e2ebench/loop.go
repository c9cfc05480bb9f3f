package main

import (
	"context"
	"fmt"
	"net/http"
	"time"
)

// op is one submitted operation (a task or a plan) followed to its end.
type op struct {
	id, tenant string
	due        time.Time // when it should have been sent
	sent       time.Time // when the POST went out
	measured   bool      // due inside the measured phase
	sample     bool      // traced run: reconcile against its server trace

	nextCheck time.Time     // when to GET it next
	backoff   time.Duration // fallback GET spacing, doubled per miss
	requests  int           // HTTP requests spent on it
	event     bool          // its terminal event arrived
}

// recorder accumulates one client's outcomes. Latency-like samples and
// view-derived counts cover measured operations only; the tally covers all.
type recorder struct {
	tally tally

	latency, admit, lag dist // ms
	simTime, simCost    dist // per operation, from its view
	ok                  int  // measured operations that succeeded
	lastDone            time.Time

	// Over measured operations: their HTTP requests (submits and view
	// GETs, plus the scrapes of the measured phase) and how many had their
	// terminal event delivered.
	requests int
	events   int
	resolved int // measured operations resolved

	// From task views: executions, failures, retries and re-plans.
	executed, failures, retries, replans dist
	// From plan views.
	planRun, planQueue, evals, gens dist // s, ms, counts

	// Traced run only.
	traces *traceRecorder
}

func (r *recorder) merge(o *recorder) {
	r.tally.merge(&o.tally)
	for _, p := range []struct{ dst, src *dist }{
		{&r.latency, &o.latency}, {&r.admit, &o.admit}, {&r.lag, &o.lag},
		{&r.simTime, &o.simTime}, {&r.simCost, &o.simCost},
		{&r.executed, &o.executed}, {&r.failures, &o.failures},
		{&r.retries, &o.retries}, {&r.replans, &o.replans},
		{&r.planRun, &o.planRun}, {&r.planQueue, &o.planQueue},
		{&r.evals, &o.evals}, {&r.gens, &o.gens},
	} {
		for _, x := range p.src.xs {
			p.dst.add(x)
		}
	}
	r.ok += o.ok
	if o.lastDone.After(r.lastDone) {
		r.lastDone = o.lastDone
	}
	r.requests += o.requests
	r.events += o.events
	r.resolved += o.resolved
	if o.traces != nil {
		if r.traces == nil {
			r.traces = &traceRecorder{}
		}
		r.traces.merge(o.traces)
	}
}

// client is one load-generating goroutine: it submits on its schedule
// (closed window or open arrivals), follows its operations to a terminal
// state over one shared HTTP client, and scrapes when asked.
type client struct {
	wl      *workload
	hc      *http.Client
	base    string
	w       *watcher
	measure time.Time // start of the measured phase
	stop    time.Time // no submission is due at or after stop
	rec     *recorder
	traced  *probe // nil when untraced

	// Closed loop: fresh IDs from ids. Open loop: the arrival schedule.
	ids      *idSource
	schedule []arrival
	start    time.Time
	nextArr  int

	inbox    chan string
	pending  map[string]*op
	freed    []time.Time // closed loop: when window slots came free
	nextScr  time.Time
	nSampled int
}

// inboxSize bounds the terminal events buffered for one client; it covers
// far more outstanding operations than any workload keeps, so the watcher
// does not block on a client busy with a request.
const inboxSize = 4096

func (c *client) run(ctx context.Context) {
	c.inbox = make(chan string, inboxSize)
	c.pending = map[string]*op{}
	if c.wl.window > 0 {
		for range c.wl.window {
			c.freed = append(c.freed, c.start)
		}
	}
	if c.wl.scrape > 0 {
		c.nextScr = c.start
	}
	for ctx.Err() == nil {
		now := time.Now()
		if o := c.due(now); o != nil {
			c.submit(ctx, o)
			continue
		}
		c.drainInbox(now)
		if o := c.dueCheck(now); o != nil {
			c.checkOp(ctx, o)
			continue
		}
		if c.wl.scrape > 0 && !now.Before(c.nextScr) && now.Before(c.stop) {
			c.scrape(ctx)
			c.nextScr = c.nextScr.Add(c.wl.scrape)
			continue
		}
		wake, more := c.nextWake()
		if !more {
			return
		}
		t := time.NewTimer(time.Until(wake))
		select {
		case id := <-c.inbox:
			c.notify(id, time.Now())
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
}

// due returns the next operation whose send time has come, if any.
func (c *client) due(now time.Time) *op {
	if c.wl.window > 0 {
		if len(c.freed) == 0 || !now.Before(c.stop) {
			return nil
		}
		due := c.freed[0]
		c.freed = c.freed[1:]
		return &op{id: c.ids.next(), due: due, measured: !due.Before(c.measure)}
	}
	if c.nextArr >= len(c.schedule) {
		return nil
	}
	a := c.schedule[c.nextArr]
	due := c.start.Add(a.at)
	if now.Before(due) {
		return nil
	}
	c.nextArr++
	return &op{id: a.id, tenant: a.tenant, due: due, measured: !due.Before(c.measure)}
}

// nextWake returns when the loop has something to do next, and false once
// it has nothing left to do at all.
func (c *client) nextWake() (time.Time, bool) {
	var wake time.Time
	consider := func(t time.Time) {
		if wake.IsZero() || t.Before(wake) {
			wake = t
		}
	}
	if c.wl.window == 0 && c.nextArr < len(c.schedule) {
		consider(c.start.Add(c.schedule[c.nextArr].at))
	}
	for _, o := range c.pending {
		consider(o.nextCheck)
	}
	if c.wl.scrape > 0 && c.nextScr.Before(c.stop) && !wake.IsZero() {
		consider(c.nextScr)
	}
	if c.wl.window > 0 && len(c.freed) > 0 && time.Now().Before(c.stop) {
		consider(time.Now())
	}
	return wake, !wake.IsZero()
}

func (c *client) submit(ctx context.Context, o *op) {
	body, err := c.wl.body(o.id, o.tenant)
	if err != nil {
		c.rec.tally.attempt()
		c.rec.tally.fail("building request: " + err.Error())
		return
	}
	c.w.watch(o.id, c.inbox)
	o.sent = time.Now()
	status, err := call(ctx, c.hc, http.MethodPost, c.base+c.wl.res.path, body, nil)
	admitted := time.Now()
	o.requests++
	c.rec.tally.attempt()
	if o.measured {
		c.rec.lag.add(ms(o.sent.Sub(o.due)))
	}
	if err != nil || status/100 != 2 {
		c.w.forget(o.id)
		c.rec.tally.fail(fmt.Sprintf("submit answered %d %v", status, errText(err)))
		c.slotFree(admitted)
		if o.measured {
			c.rec.requests += o.requests
		}
		return
	}
	if o.measured {
		c.rec.admit.add(ms(admitted.Sub(o.sent)))
	}
	o.sample = c.traced != nil && o.measured && c.nSampled%traceSampleEvery == 0
	if c.traced != nil && o.measured {
		c.nSampled++
	}
	o.backoff = c.wl.res.firstCheck
	o.nextCheck = o.sent.Add(o.backoff)
	c.pending[o.id] = o
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// drainInbox takes every buffered terminal event without blocking.
func (c *client) drainInbox(now time.Time) {
	for {
		select {
		case id := <-c.inbox:
			c.notify(id, now)
		default:
			return
		}
	}
}

// notify schedules an immediate GET for an operation whose terminal event
// arrived. The event is published just before the terminal state becomes
// visible, so a GET that still sees it running retries at 1 ms, doubling.
func (c *client) notify(id string, now time.Time) {
	o := c.pending[id]
	if o == nil {
		return
	}
	o.event = true
	o.nextCheck = now
	o.backoff = time.Millisecond
}

// dueCheck returns a pending operation whose GET is due, if any.
func (c *client) dueCheck(now time.Time) *op {
	var pick *op
	for _, o := range c.pending {
		if !o.nextCheck.After(now) && (pick == nil || o.nextCheck.Before(pick.nextCheck)) {
			pick = o
		}
	}
	return pick
}

func (c *client) checkOp(ctx context.Context, o *op) {
	var v view
	status, err := call(ctx, c.hc, http.MethodGet, c.base+c.wl.res.path+"/"+o.id, nil, &v)
	now := time.Now()
	o.requests++
	switch {
	case err == nil && status == http.StatusNotFound:
		c.resolve(ctx, o, now, nil, outcomeLost, "lost: 404 on GET")
		return
	case err != nil || status != http.StatusOK || !v.terminal():
		if now.Sub(o.sent) > c.wl.res.stuckAfter {
			c.resolve(ctx, o, now, nil, outcomeLost, fmt.Sprintf("stuck: not terminal after %v", c.wl.res.stuckAfter))
			return
		}
		o.nextCheck = now.Add(o.backoff)
		o.backoff = min(2*o.backoff, c.wl.res.maxCheck)
		return
	}
	ok, reason, wrong := c.wl.check(&v)
	switch {
	case ok:
		c.resolve(ctx, o, now, &v, outcomeOK, "")
	case wrong:
		c.resolve(ctx, o, now, &v, outcomeWrong, "wrong output: "+reason)
	default:
		c.resolve(ctx, o, now, &v, outcomeFailed, reason)
	}
}

// outcome is how an operation ended, for the tally.
type outcome int

const (
	outcomeOK     outcome = iota
	outcomeFailed         // the program reported the failure
	outcomeWrong          // reported successful, output wrong
	outcomeLost           // never seen terminal
)

// resolve ends an operation and records it; v is nil for a lost one.
func (c *client) resolve(ctx context.Context, o *op, now time.Time, v *view, how outcome, reason string) {
	delete(c.pending, o.id)
	c.w.forget(o.id)
	c.slotFree(now)
	switch how {
	case outcomeOK:
		c.rec.tally.ok()
	case outcomeFailed:
		c.rec.tally.fail(reason)
	case outcomeWrong:
		c.rec.tally.wrong(reason)
	case outcomeLost:
		c.rec.tally.lose(reason)
	}
	if !o.measured {
		return
	}
	c.rec.requests += o.requests
	c.rec.resolved++
	if o.event {
		c.rec.events++
	}
	if v == nil {
		return
	}
	// Closed loops time from the actual send, open loops from the
	// scheduled one, so a generator stall counts against the system.
	from := o.sent
	if c.wl.window == 0 {
		from = o.due
	}
	c.rec.latency.add(ms(now.Sub(from)))
	if how != outcomeOK {
		return
	}
	c.rec.ok++
	if now.After(c.rec.lastDone) {
		c.rec.lastDone = now
	}
	if v.Eval != nil {
		c.rec.simTime.add(v.Eval.Time)
		c.rec.simCost.add(v.Eval.Cost)
		if v.Started != nil && v.Finished != nil {
			c.rec.planRun.add(v.Finished.Sub(*v.Started).Seconds())
			c.rec.planQueue.add(ms(v.Started.Sub(v.Submitted)))
		}
		c.rec.evals.add(float64(v.Evaluations))
		c.rec.gens.add(float64(v.Generations))
	} else {
		c.rec.simTime.add(v.Time)
		c.rec.simCost.add(v.Cost)
		c.rec.executed.add(float64(v.Executed))
		c.rec.failures.add(float64(v.Failures))
		c.rec.retries.add(float64(v.Retries))
		c.rec.replans.add(float64(v.Replans))
	}
	if c.traced != nil {
		c.traced.observe(ctx, c, o, now)
	}
}

// slotFree hands a closed-loop window slot back.
func (c *client) slotFree(at time.Time) {
	if c.wl.window > 0 {
		c.freed = append(c.freed, at)
	}
}

// scrape is the operator's 1 Hz look at the stats and the Prometheus
// metrics.
func (c *client) scrape(ctx context.Context) {
	for _, path := range []string{"/api/v1/stats", "/api/v1/metrics?format=prometheus"} {
		status, err := call(ctx, c.hc, http.MethodGet, c.base+path, nil, nil)
		if !c.nextScr.Before(c.measure) {
			c.rec.requests++
		}
		if err != nil || status != http.StatusOK {
			// A failed scrape is not a workload operation; note it loudly.
			c.rec.tally.attempt()
			c.rec.tally.fail(fmt.Sprintf("scrape %s answered %d %v", path, status, errText(err)))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
