package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/httpapi"
	"repro/internal/planner"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/virolab"
)

// gridenvOptions mirrors what cmd/gridenv builds from its default flags
// (-clusters 6 -smps 3 -supers 1 -seed 1, GOMAXPROCS engine and plan
// workers, default plan cache and trace retention, the resolution hook,
// checkpoints on, info-level text logs). cmd/gridenv is a main package and
// cannot be imported, so this copy must be kept in step with it by hand.
//
// Logs are formatted as in production but written to io.Discard: the
// formatting cost stays in the measurement, the terminal flood does not.
func gridenvOptions(storeDSN string) (core.Options, error) {
	gridCfg := grid.DefaultSyntheticConfig()
	gridCfg.Clusters = 6
	gridCfg.SMPs = 3
	gridCfg.Supercomputers = 1
	gridCfg.Seed = 1
	params := planner.DefaultParams()
	params.Seed = 1
	logger, err := telemetry.NewLogger(io.Discard, "info", "text")
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		GridConfig:  &gridCfg,
		Catalog:     virolab.Catalog(),
		Planner:     params,
		PostProcess: virolab.ResolutionHook(nil),
		Checkpoint:  true,
		StoreDSN:    storeDSN,
		Logger:      logger,
	}, nil
}

// stack is one environment served over a loopback HTTP server.
type stack struct {
	env  *core.Environment
	srv  *http.Server
	done chan struct{} // closed when Serve returns
	base string        // http://127.0.0.1:port
}

// buildStack builds the environment on storeDSN and serves its HTTP API on
// a loopback port. A non-nil probe instruments the layers for the traced
// run; nil builds exactly what gridenv builds.
func buildStack(storeDSN string, pr *probe) (*stack, error) {
	opts, err := gridenvOptions(storeDSN)
	if err != nil {
		return nil, err
	}
	if pr != nil {
		// The probe's store wrapper needs the registry the environment will
		// use, so create it here, as NewEnvironment would.
		opts.Telemetry = telemetry.New()
		backend, err := store.Open(storeDSN, store.Options{Telemetry: opts.Telemetry})
		if err != nil {
			return nil, err
		}
		opts.Store = pr.wrapStore(backend)
		opts.PostProcess = pr.wrapPostProcess(opts.PostProcess)
	}
	env, err := core.NewEnvironment(opts)
	if err != nil {
		if opts.Store != nil {
			_ = opts.Store.Close()
		}
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.Close()
		return nil, err
	}
	handler := httpapi.New(env).Handler()
	if pr != nil {
		pr.attach(env)
		handler = pr.wrapHandler(handler)
	}
	s := &stack{
		env:  env,
		srv:  &http.Server{Handler: handler},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server (dropping open streams) and then the environment,
// and returns once the serving goroutine has exited.
func (s *stack) close() {
	_ = s.srv.Close()
	<-s.done
	s.env.Close()
}

// waitReady polls GET base/readyz until it answers 200.
func waitReady(ctx context.Context, c *http.Client, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for /readyz: %w", errors.Join(ctx.Err(), err))
		case <-time.After(time.Millisecond):
		}
	}
}

// timeSetup measures set-up: from the start of build until base/readyz of
// what it built answers 200.
func timeSetup[T any](ctx context.Context, c *http.Client, build func() (T, string, error)) (time.Duration, T, error) {
	start := time.Now()
	v, base, err := build()
	if err != nil {
		return 0, v, err
	}
	if err := waitReady(ctx, c, base); err != nil {
		return 0, v, err
	}
	return time.Since(start), v, nil
}
