package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// phase is one measured stretch on a fresh environment.
type phase struct {
	wl      *workload
	seed    int64
	seconds time.Duration
	setups  int    // environments built to time set-up; the last one runs
	traced  bool   // instrument the layers (the per-layer run)
	workdir string // parent of durable store directories
}

// phaseResult is everything a phase measured.
type phaseResult struct {
	setup   dist // seconds per set-up
	rec     recorder
	measure time.Time // start of the measured phase
	from    snapshot  // at the start of the measured phase
	to      snapshot  // after the last operation resolved
	peakRSS float64   // MiB, process high-water
	probe   *probe    // traced phase only
}

// snapshot is the process- and registry-wide state the per-op metrics
// difference.
type snapshot struct {
	cpu time.Duration // process user + system time
	rt  []metrics.Sample
	reg telemetry.Snapshot

	syncPuts, asyncPuts, putBytes, postProcess, msgs int64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func takeSnapshot(reg *telemetry.Registry, pr *probe) snapshot {
	s := snapshot{cpu: processCPU(), rt: make([]metrics.Sample, len(runtimeMetrics))}
	for i, name := range runtimeMetrics {
		s.rt[i].Name = name
	}
	metrics.Read(s.rt)
	s.reg = reg.Snapshot()
	if pr != nil {
		s.syncPuts, s.asyncPuts = pr.syncPuts.Load(), pr.asyncPuts.Load()
		s.putBytes, s.postProcess = pr.putBytes.Load(), pr.postProcess.Load()
		pr.agentMu.Lock()
		s.msgs = pr.msgs
		pr.agentMu.Unlock()
	}
	return s
}

// connBudget is how many connections (and load goroutines) carry requests:
// one per CPU in all, one of them the event stream.
func connBudget() (requests int) { return max(1, runtime.NumCPU()-1) }

func (ph phase) run(ctx context.Context) (*phaseResult, error) {
	reqHC := newHTTPClient(connBudget())
	defer reqHC.CloseIdleConnections()
	sseHC := newHTTPClient(1)
	defer sseHC.CloseIdleConnections()

	res := &phaseResult{}
	var st *stack
	for i := range ph.setups {
		dsn := "mem:"
		if ph.wl.durable {
			dir, err := os.MkdirTemp(ph.workdir, ph.wl.name+"-store-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			dsn = "file:" + dir
		}
		var pr *probe
		if ph.traced {
			pr = newProbe()
		}
		// Start each build from a collected heap, as a fresh process would,
		// so garbage from the previous build does not land in the timing.
		runtime.GC()
		d, s, err := timeSetup(ctx, reqHC, func() (*stack, string, error) {
			s, err := buildStack(dsn, pr)
			if err != nil {
				return nil, "", err
			}
			return s, s.base, nil
		})
		if err != nil {
			if s != nil {
				s.close()
			}
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		res.setup.add(d.Seconds())
		if i < ph.setups-1 {
			s.close()
			reqHC.CloseIdleConnections()
			continue
		}
		st, res.probe = s, pr
	}
	defer st.close()

	w, err := startWatcher(sseHC, st.base, ph.wl.res.kind)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if res.probe != nil {
		res.probe.startSampler()
	}

	start := time.Now()
	res.measure = start.Add(ph.wl.warmup)
	stop := res.measure.Add(ph.seconds)
	var schedule []arrival
	n := 1
	if ph.wl.window > 0 {
		n = connBudget()
		if ph.wl.closedClients > 0 {
			n = min(n, ph.wl.closedClients)
		}
	} else {
		schedule = arrivals(ph.seed, ph.wl.rate, stop.Sub(start))
	}

	// The measured phase opens with a snapshot taken while the warm-up
	// traffic is still flowing, so the loop never pauses between the two.
	snapped := make(chan struct{})
	snapTimer := time.AfterFunc(time.Until(res.measure), func() {
		defer close(snapped)
		res.probe.resetSamples()
		res.from = takeSnapshot(st.env.Telemetry, res.probe)
	})
	defer snapTimer.Stop()

	recs := make([]*recorder, n)
	var wg sync.WaitGroup
	for i := range n {
		recs[i] = &recorder{}
		c := &client{
			wl: ph.wl, hc: reqHC, base: st.base, w: w,
			measure: res.measure, stop: stop, rec: recs[i], start: start,
			ids:      newIDSource(ph.seed*1009+int64(i), fmt.Sprintf("%s%d", ph.wl.name[:2], i)),
			schedule: schedule,
		}
		if res.probe != nil {
			c.traced = res.probe
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(ctx)
		}()
	}
	wg.Wait()
	select {
	case <-snapped:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	res.to = takeSnapshot(st.env.Telemetry, res.probe)
	if res.probe != nil {
		res.probe.stopSampler()
	}
	res.peakRSS = peakRSSMiB()
	for _, r := range recs {
		res.rec.merge(r)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// resetSamples drops what the probe sampled during warm-up. Safe on nil.
func (p *probe) resetSamples() {
	if p == nil {
		return
	}
	p.httpMu.Lock()
	clear(p.httpMS)
	p.httpMu.Unlock()
	p.storeMu.Lock()
	p.putMS = dist{}
	p.storeMu.Unlock()
	p.agentMu.Lock()
	clear(p.callMS)
	p.agentMu.Unlock()
	p.sampleMu.Lock()
	p.depthMax, p.busy, p.heapPeak = 0, dist{}, 0
	p.sampleMu.Unlock()
}
