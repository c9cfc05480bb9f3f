// Command gridenv starts a complete grid environment — synthetic grid, core
// services, planning, coordination — and serves the User Interface HTTP API
// (package httpapi) on the given address.
//
// Usage:
//
//	gridenv [-addr :8080] [-clusters 6] [-smps 3] [-supers 1] [-seed 1]
//	        [-store mem:|file:DIR] [-store-batch N]
//	        [-store-interval D] [-workers N] [-enact-delay D]
//	        [-tenants alpha:3,beta:1] [-tenant-max-queued N]
//	        [-tenant-max-inflight N] [-tenant-rate R] [-tenant-burst N]
//	        [-node-id a -peers a=http://h1:8080,b=http://h2:8080]
//	        [-log-level info] [-log-format text] [-pprof]
//
// -store selects the storage backend by DSN: "mem:" (volatile, the default)
// or "file:DIR" (append-only segmented log with rotation and compaction). On
// file:, checkpoints, archived plans, and the enactment engine's write-ahead
// task journal survive restarts with no explicit save step: journal appends
// are group-committed (one fsync per batch; -store-batch bounds the batch,
// -store-interval adds an optional linger), and at startup the engine
// replays the journal — tasks that were accepted but never started are
// re-enqueued, tasks interrupted mid-enactment resume from their latest
// checkpoint, and finished tasks stay queryable. -workers sizes the engine's
// coordinator worker pool (default: GOMAXPROCS); -enact-delay sleeps that
// long per enacted activity, emulating remote service latency for load
// experiments.
//
// -tenants assigns fair-share weights (id:weight,...) to named tenants; the
// -tenant-* flags set the default admission quotas — max queued tasks, max
// concurrent enactments, and token-bucket submit rate/burst — applied to
// every tenant without an explicit entry. Quota rejections answer HTTP 429
// tenant_queue_full / tenant_rate_limited with Retry-After and X-RateLimit-*
// headers; per-tenant accounting is served at /api/v1/tenants.
//
// Submissions may carry cost/deadline constraints ("budget", plus "deadline"
// with "hardDeadline":true): the scheduler then picks the cheapest candidate
// node that still meets the deadline, per-case spend is surfaced in the task
// view (spent/budget, deadlineSlackSec) and per-tenant spend as spentCost in
// /api/v1/tenants, and a blown constraint terminates the task with reason
// budget_exceeded or deadline_missed. See README "Cost-aware scheduling".
//
// -peers joins this process to a multi-node cluster: the value is the full
// static membership (id=addr or id=addr=weight, comma-separated, including
// this node, whose entry -node-id selects). Task and plan ownership is
// partitioned across members by consistent hashing; requests landing on a
// non-owner are forwarded to the owner transparently, /api/v1/cluster
// serves membership and health, and ?scope=cluster on /api/v1/stats and
// /api/v1/tenants aggregates across the cluster. See README "Clustering".
//
// Try it:
//
//	curl localhost:8080/api/v1/nodes
//	curl localhost:8080/api/v1/services
//	curl -X POST localhost:8080/api/v1/tasks -d '{"id":"T1","goal":["G.Classification = \"Resolution File\""],"initialData":[...]}'
//	curl -X POST localhost:8080/api/v1/tasks -d '{"id":"T2","budget":50,"deadline":30,"hardDeadline":true,"goal":[...],"initialData":[...]}'
//	curl localhost:8080/api/v1/tasks/T1/trace
//	curl localhost:8080/api/v1/metrics
//	curl localhost:8080/api/v1/metrics?format=prometheus
//	curl -N localhost:8080/api/v1/events
//	curl localhost:8080/api/v1/stats
//	curl localhost:8080/healthz localhost:8080/readyz
//
// Structured logs go to stderr; -log-level picks the threshold (debug, info,
// warn, error) and -log-format the encoding (text or json). -pprof mounts
// the net/http/pprof profiling handlers under /debug/pprof/.
//
// The unversioned /api/... aliases were removed: they answer 410 gone with a
// Link header naming the /api/v1 successor. See OBSERVABILITY.md for the
// metric names, the trace span schema, the log schema, and the event stream.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/httpapi"
	"repro/internal/load"
	"repro/internal/planner"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		clusters  = flag.Int("clusters", 6, "PC clusters in the synthetic grid")
		smps      = flag.Int("smps", 3, "SMP nodes")
		supers    = flag.Int("supers", 1, "supercomputers")
		seed      = flag.Int64("seed", 1, "grid and planner seed")
		storeDSN  = flag.String("store", "", "storage backend DSN: mem: or file:DIR")
		storeBat  = flag.Int("store-batch", 0, "group-commit batch bound for file: (0 = default)")
		storeIntv = flag.Duration("store-interval", 0, "group-commit linger interval (0 = flush when the flusher is free)")
		workers   = flag.Int("workers", 0, "enactment worker pool size (0 = GOMAXPROCS)")
		enactDel  = flag.Duration("enact-delay", 0, "emulated per-activity service latency (load experiments; 0 = none)")
		planWkrs  = flag.Int("plan-workers", 0, "planning service worker pool size (0 = GOMAXPROCS)")
		planCache = flag.Int("plan-cache", 0, "plan cache size in entries (0 = default 4096)")
		tenants   = flag.String("tenants", "", "per-tenant fair-share weights as id:weight,... (empty = all weight 1)")
		tMaxQ     = flag.Int("tenant-max-queued", 0, "default per-tenant queued-task quota (0 = unlimited)")
		tMaxIF    = flag.Int("tenant-max-inflight", 0, "default per-tenant concurrent-enactment cap (0 = unlimited)")
		tRate     = flag.Float64("tenant-rate", 0, "default per-tenant submit rate per second (0 = unlimited)")
		tBurst    = flag.Int("tenant-burst", 0, "default per-tenant submit burst (0 = max(1, ceil(rate)))")
		nodeID    = flag.String("node-id", "", "this node's cluster identity (required with -peers)")
		peers     = flag.String("peers", "", "cluster membership as id=addr[,id=addr=weight,...] including this node (empty = single-node)")
		heartbeat = flag.Duration("heartbeat", 0, "cluster heartbeat probe interval (0 = 500ms)")
		logLevel  = flag.String("log-level", "info", "structured log threshold: debug, info, warn, error")
		logFmt    = flag.String("log-format", "text", "structured log encoding: text or json")
		pprof     = flag.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
		trSpans   = flag.Int("trace-spans", 0, "spans retained per task trace (0 = default 2048)")
		trTasks   = flag.Int("trace-tasks", 0, "task traces retained before the oldest is evicted (0 = default 1024)")
	)
	flag.Parse()
	clusterCfg := clusterOptions{nodeID: *nodeID, peers: *peers, heartbeat: *heartbeat}
	tenantCfg := tenantOptions{
		weights: *tenants,
		defaults: engine.TenantConfig{
			MaxQueued: *tMaxQ, MaxInFlight: *tMaxIF,
			RatePerSec: *tRate, Burst: *tBurst,
		},
	}
	storeCfg := storeOptions{
		dsn:   *storeDSN,
		flush: store.FlushConfig{MaxBatch: *storeBat, Interval: *storeIntv},
	}
	if err := run(*addr, *clusters, *smps, *supers, *seed, storeCfg, *workers, *enactDel, *planWkrs, *planCache, tenantCfg, clusterCfg, traceOptions{spanCap: *trSpans, maxTasks: *trTasks}, *logLevel, *logFmt, *pprof); err != nil {
		fmt.Fprintln(os.Stderr, "gridenv:", err)
		os.Exit(1)
	}
}

// storeOptions carries the storage flags into run.
type storeOptions struct {
	dsn   string
	flush store.FlushConfig
}

// clusterOptions carries the clustering flags into run.
type clusterOptions struct {
	nodeID    string
	peers     string
	heartbeat time.Duration
}

// node builds and starts the cluster node, or returns nil when -peers is
// unset (single-node deployment).
func (c clusterOptions) node(env *core.Environment) (*cluster.Node, error) {
	if c.peers == "" {
		if c.nodeID != "" {
			return nil, fmt.Errorf("-node-id given without -peers")
		}
		return nil, nil
	}
	if c.nodeID == "" {
		return nil, fmt.Errorf("-peers requires -node-id")
	}
	list, err := cluster.ParsePeers(c.peers)
	if err != nil {
		return nil, err
	}
	return cluster.New(cluster.Config{
		NodeID:            c.nodeID,
		Peers:             list,
		Engine:            env.Engine,
		Telemetry:         env.Telemetry,
		Logger:            env.Logger,
		HeartbeatInterval: c.heartbeat,
	})
}

// tenantOptions carries the tenancy flags into run.
type tenantOptions struct {
	weights  string
	defaults engine.TenantConfig
}

// resolve parses -tenants and merges the default quotas into every explicit
// entry, so a weighted tenant still gets the shared quota settings.
func (t tenantOptions) resolve() (map[string]engine.TenantConfig, engine.TenantConfig, error) {
	if t.weights == "" {
		return nil, t.defaults, nil
	}
	mix, err := load.ParseTenants(t.weights)
	if err != nil {
		return nil, t.defaults, err
	}
	out := make(map[string]engine.TenantConfig, len(mix))
	for _, m := range mix {
		cfg := t.defaults
		cfg.Weight = m.Weight
		out[m.ID] = cfg
	}
	return out, t.defaults, nil
}

// traceOptions carries the trace-retention flags into run.
type traceOptions struct {
	spanCap  int // spans per task trace; 0 = telemetry default
	maxTasks int // retained task traces; 0 = telemetry default
}

func run(addr string, clusters, smps, supers int, seed int64, storeCfg storeOptions, workers int, enactDelay time.Duration, planWorkers, planCache int, tenants tenantOptions, clusterCfg clusterOptions, traceCfg traceOptions, logLevel, logFmt string, pprof bool) error {
	gridCfg := grid.DefaultSyntheticConfig()
	gridCfg.Clusters = clusters
	gridCfg.SMPs = smps
	gridCfg.Supercomputers = supers
	gridCfg.Seed = seed
	params := planner.DefaultParams()
	params.Seed = seed
	logger, err := telemetry.NewLogger(os.Stderr, logLevel, logFmt)
	if err != nil {
		return err
	}
	tenantMap, tenantDefaults, err := tenants.resolve()
	if err != nil {
		return err
	}

	// -enact-delay emulates per-activity service latency (network + remote
	// compute) so load experiments exercise worker-pool capacity rather than
	// raw single-process CPU; it composes with the resolution hook.
	post := virolab.ResolutionHook(nil)
	if enactDelay > 0 {
		inner := post
		post = func(a *workflow.Activity, items []*workflow.DataItem, iter int) {
			time.Sleep(enactDelay)
			inner(a, items, iter)
		}
	}

	env, err := core.NewEnvironment(core.Options{
		GridConfig:     &gridCfg,
		Catalog:        virolab.Catalog(),
		Planner:        params,
		PostProcess:    post,
		Checkpoint:     true,
		StoreDSN:       storeCfg.dsn,
		StoreFlush:     storeCfg.flush,
		Workers:        workers,
		PlanWorkers:    planWorkers,
		PlanCacheSize:  planCache,
		Tenants:        tenantMap,
		TenantDefaults: tenantDefaults,
		TraceSpanCap:   traceCfg.spanCap,
		TraceMaxTasks:  traceCfg.maxTasks,
		Logger:         logger,
	})
	if err != nil {
		return err
	}
	defer env.Close()

	node, err := clusterCfg.node(env)
	if err != nil {
		return err
	}
	if node != nil {
		env.AttachCluster(node)
	}

	if env.Store.Kind() != "mem" {
		// Clustered nodes sharing a replicated store replay only their own
		// ring partition, so a restart does not steal live peers' tasks.
		var own func(tenant, taskID string) bool
		if node != nil {
			own = func(tenant, taskID string) bool {
				_, mine := node.Owner(tenant, taskID)
				return mine
			}
		}
		report, err := env.Engine.RecoverOwned(own)
		if err != nil {
			return fmt.Errorf("replaying task journal: %w", err)
		}
		if report.Total() > 0 || report.Terminal > 0 {
			fmt.Printf("journal replayed: %d requeued, %d resumed from checkpoint, %d restarted, %d already finished\n",
				len(report.Requeued), len(report.Resumed), len(report.Restarted), report.Terminal)
		}
	}
	if storeCfg.dsn != "" {
		fmt.Printf("storage backend: %s\n", env.Store.Kind())
	}

	ui := httpapi.New(env)
	ui.EnablePprof = pprof
	server := &http.Server{Addr: addr, Handler: ui.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	if node != nil {
		// Heartbeats start once the HTTP server is accepting, since peers
		// probe this node's /healthz right back.
		node.Start()
		fmt.Printf("cluster node %s up: %d peers, ring %s\n",
			node.Self().ID, len(node.Ring().Members())-1, node.Ring().Version())
	}
	fmt.Printf("grid environment up: %d nodes, %d containers; serving on %s\n",
		len(env.Grid.Nodes()), len(env.Grid.Containers()), addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case <-sig:
	}
	_ = server.Close()
	return nil
}
