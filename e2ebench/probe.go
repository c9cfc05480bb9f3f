package main

import (
	"context"
	"net/http"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// probe instruments the layers of one environment for the traced run, from
// outside: it wraps the HTTP handler, the store and the steering hook,
// listens on the agent platform's message trace, and samples the engine.
type probe struct {
	env *core.Environment

	httpMu sync.Mutex
	httpMS map[string]*dist // route class → handler time, ms

	storeMu   sync.Mutex
	putMS     dist // synchronous Put/Replace, ms
	syncPuts  atomic.Int64
	asyncPuts atomic.Int64
	putBytes  atomic.Int64

	postProcess atomic.Int64 // steering-hook calls: one per executed activity

	agentMu sync.Mutex
	msgs    int64
	open    map[uint64]openCall // conversation → request awaiting its reply
	callMS  map[string]*dist    // receiving service → round trip, ms

	stop, done chan struct{}
	sampleMu   sync.Mutex
	depthMax   int
	busy       dist
	heapPeak   uint64 // live heap high-water, bytes
}

type openCall struct {
	receiver string
	at       time.Time
}

// maxOpenCalls bounds the request table: asynchronous requests that are
// never answered would otherwise accumulate for the whole run.
const maxOpenCalls = 1 << 16

func newProbe() *probe {
	return &probe{
		httpMS: map[string]*dist{},
		open:   map[uint64]openCall{},
		callMS: map[string]*dist{},
	}
}

// routeClass names the request kinds the per-layer metrics split.
func routeClass(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/api/v1/events":
		return "events"
	case r.Method == http.MethodPost && (p == "/api/v1/tasks" || p == "/api/v1/plans"):
		return "submit"
	case strings.HasSuffix(p, "/trace"):
		return "trace"
	case strings.HasPrefix(p, "/api/v1/tasks/") || strings.HasPrefix(p, "/api/v1/plans/"):
		return "view"
	case p == "/api/v1/stats" || p == "/api/v1/metrics":
		return "scrape"
	}
	return "other"
}

// wrapHandler times every request except the long-lived event stream.
func (p *probe) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := routeClass(r)
		if class == "events" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := ms(time.Since(start))
		p.httpMu.Lock()
		if p.httpMS[class] == nil {
			p.httpMS[class] = &dist{}
		}
		p.httpMS[class].add(d)
		p.httpMu.Unlock()
	})
}

// probedStore counts and times the mutations reaching the backend.
type probedStore struct {
	store.Store
	p *probe
}

func (s probedStore) Put(key string, value []byte) (int, error) {
	start := time.Now()
	v, err := s.Store.Put(key, value)
	s.p.noteSync(start, len(value))
	return v, err
}

func (s probedStore) Replace(key string, value []byte) (int, error) {
	start := time.Now()
	v, err := s.Store.Replace(key, value)
	s.p.noteSync(start, len(value))
	return v, err
}

func (s probedStore) PutAsync(key string, value []byte) (int, error) {
	s.p.asyncPuts.Add(1)
	s.p.putBytes.Add(int64(len(value)))
	return s.Store.PutAsync(key, value)
}

// probedCopier keeps the backend's optional DurableCopier visible.
type probedCopier struct {
	probedStore
	c store.DurableCopier
}

func (s probedCopier) CopyDurable(dst string) error { return s.c.CopyDurable(dst) }

func (p *probe) wrapStore(inner store.Store) store.Store {
	ps := probedStore{Store: inner, p: p}
	if c, ok := inner.(store.DurableCopier); ok {
		return probedCopier{probedStore: ps, c: c}
	}
	return ps
}

func (p *probe) noteSync(start time.Time, n int) {
	d := ms(time.Since(start))
	p.syncPuts.Add(1)
	p.putBytes.Add(int64(n))
	p.storeMu.Lock()
	p.putMS.add(d)
	p.storeMu.Unlock()
}

func (p *probe) wrapPostProcess(inner func(*workflow.Activity, []*workflow.DataItem, int)) func(*workflow.Activity, []*workflow.DataItem, int) {
	return func(a *workflow.Activity, items []*workflow.DataItem, visit int) {
		p.postProcess.Add(1)
		inner(a, items, visit)
	}
}

// attach hooks the agent message trace of a built environment.
func (p *probe) attach(env *core.Environment) {
	p.env = env
	env.Platform.SetTrace(p.onMessage)
}

// onMessage pairs each request with the reply on its conversation and
// times the round trip per receiving service (the containers as one).
func (p *probe) onMessage(m agent.Message) {
	now := time.Now()
	p.agentMu.Lock()
	defer p.agentMu.Unlock()
	p.msgs++
	if c, ok := p.open[m.ConversationID]; ok && m.Sender == c.receiver {
		delete(p.open, m.ConversationID)
		name := c.receiver
		if strings.HasPrefix(name, "ac-") {
			name = "container"
		}
		if p.callMS[name] == nil {
			p.callMS[name] = &dist{}
		}
		p.callMS[name].add(ms(now.Sub(c.at)))
		return
	}
	if m.Performative == agent.Request {
		if len(p.open) >= maxOpenCalls {
			clear(p.open)
		}
		p.open[m.ConversationID] = openCall{receiver: m.Receiver, at: now}
	}
}

// sampleEvery is the engine and heap sampling period of the traced run.
const sampleEvery = 5 * time.Millisecond

// startSampler samples queue depth, busy workers and the live heap until
// stopSampler.
func (p *probe) startSampler() {
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			st := p.env.Engine.Stats()
			metrics.Read(s)
			p.sampleMu.Lock()
			p.depthMax = max(p.depthMax, st.Depth)
			p.busy.add(float64(st.Busy))
			if s[0].Value.Kind() == metrics.KindUint64 {
				p.heapPeak = max(p.heapPeak, s[0].Value.Uint64())
			}
			p.sampleMu.Unlock()
		}
	}()
}

// stopSampler stops the sampler and waits for it.
func (p *probe) stopSampler() {
	close(p.stop)
	<-p.done
}

// traceSampleEvery: one measured task in this many has its server trace
// fetched over HTTP and reconciled against the client's clock.
const traceSampleEvery = 10

// traceRecorder holds one client's trace-derived samples.
type traceRecorder struct {
	queueWait, journal, schedule, enact dist // ms: per span (enact per task)

	// Reconciliation over the sampled tasks, ms.
	completionWait              dist
	latencySum, unattributedSum float64
	parts                       map[string]float64
	samples                     int
}

func (t *traceRecorder) merge(o *traceRecorder) {
	for _, p := range []struct{ dst, src *dist }{
		{&t.queueWait, &o.queueWait}, {&t.journal, &o.journal},
		{&t.schedule, &o.schedule}, {&t.enact, &o.enact},
		{&t.completionWait, &o.completionWait},
	} {
		for _, x := range p.src.xs {
			p.dst.add(x)
		}
	}
	t.latencySum += o.latencySum
	t.unattributedSum += o.unattributedSum
	for k, v := range o.parts {
		if t.parts == nil {
			t.parts = map[string]float64{}
		}
		t.parts[k] += v
	}
	t.samples += o.samples
}

// stages is what one task's trace says about where its time went.
type stages struct {
	root                      bool
	rootStart                 time.Time
	rootSec                   float64
	queueWait, enact, journal float64   // seconds, summed over spans
	journals, schedules       []float64 // seconds, per span
}

func stagesOf(spans []telemetry.Span) stages {
	var st stages
	for _, s := range spans {
		if s.SpanID == "" {
			continue // point event
		}
		switch s.Kind {
		case "task":
			st.root, st.rootStart, st.rootSec = true, s.Time, s.DurationSec
		case "queue_wait":
			st.queueWait += s.DurationSec
		case "enact":
			st.enact += s.DurationSec
		case "journal_commit":
			st.journal += s.DurationSec
			st.journals = append(st.journals, s.DurationSec)
		case "schedule":
			st.schedules = append(st.schedules, s.DurationSec)
		}
	}
	return st
}

// observe records the stages of a finished measured task from the
// registry's trace, and for sampled tasks fetches the trace over HTTP and
// splits the client's latency into admission (send to root span start),
// journal commits, queue wait, enactment (which holds the schedule spans)
// and completion wait (root span end to the client seeing the end). The
// remainder is unattributed.
func (p *probe) observe(ctx context.Context, c *client, o *op, seen time.Time) {
	if c.wl.res.kind != "task" {
		return
	}
	if c.rec.traces == nil {
		c.rec.traces = &traceRecorder{parts: map[string]float64{}}
	}
	tr := c.rec.traces
	if t := p.env.Telemetry.LookupTrace(o.id); t != nil {
		st := stagesOf(t.Spans())
		tr.queueWait.add(st.queueWait * 1e3)
		tr.enact.add(st.enact * 1e3)
		for _, j := range st.journals {
			tr.journal.add(j * 1e3)
		}
		for _, s := range st.schedules {
			tr.schedule.add(s * 1e3)
		}
	}
	if !o.sample {
		return
	}
	var tv struct {
		Spans []telemetry.Span `json:"spans"`
	}
	status, err := call(ctx, c.hc, http.MethodGet, c.base+c.wl.res.path+"/"+o.id+"/trace", nil, &tv)
	if err != nil || status != http.StatusOK {
		return
	}
	st := stagesOf(tv.Spans)
	if !st.root {
		return
	}
	rootEnd := st.rootStart.Add(time.Duration(st.rootSec * float64(time.Second)))
	parts := map[string]float64{
		"admission":      ms(st.rootStart.Sub(o.sent)),
		"journal_commit": st.journal * 1e3,
		"queue_wait":     st.queueWait * 1e3,
		"enact":          st.enact * 1e3,
		"completion":     ms(seen.Sub(rootEnd)),
	}
	var sched float64
	for _, s := range st.schedules {
		sched += s * 1e3
	}
	latency := ms(seen.Sub(o.sent))
	attributed := 0.0
	for k, v := range parts {
		tr.parts[k] += v
		attributed += v
	}
	tr.parts["schedule (in enact)"] += sched
	tr.completionWait.add(parts["completion"])
	tr.latencySum += latency
	tr.unattributedSum += latency - attributed
	tr.samples++
}
