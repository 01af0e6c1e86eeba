// Package server is the long-running, multi-tenant host for fuzzing
// campaigns: the campaign lifecycle library behind an HTTP API.
// Tenants submit campaign configurations (the same JSON shape
// internal/cli builds from flags), then list, inspect, pause, resume,
// and cancel them; verdicts and heartbeats stream out over SSE; a
// cross-campaign bug corpus accumulates across every tenant; reduced
// repro programs are served per found bug.
//
// Scheduling is slot-based: at most MaxRunning campaigns execute at
// once and the rest queue FIFO; pausing a campaign frees its slot
// (suspension is durable, so a paused campaign costs nothing). Tenant
// isolation is enforced three ways: campaigns are visible only to the
// submitting tenant, submissions pass a per-tenant token bucket, and a
// per-tenant unit-rate limiter is installed as each campaign's
// admission Gate — it blocks on the pipeline's source goroutine, so a
// throttled tenant's campaigns backpressure into the bounded stage
// channels instead of buffering unbounded work. Each tenant also gets
// its own metrics.Registry, served through the standard debug
// endpoints under /debug/tenants/{tenant}/.
//
// Every campaign is durable under DataDir, so Drain (the SIGTERM path)
// is just Pause for every running campaign: each syncs its journal,
// and a server restarted with Resume re-hosts them as suspended
// campaigns that continue exactly where they stopped. None of this bends the determinism contract —
// gates and slots only reschedule work, so a campaign run under heavy
// multi-tenant traffic reports bit-for-bit what a solo CLI run of the
// same options reports.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/metrics"
)

// Options configures a Server.
type Options struct {
	// DataDir is the root of all persistent state: one journal state
	// directory per campaign, the cross-campaign corpus, and the
	// manifest that lets a restarted server re-host suspended
	// campaigns. Empty means fully in-memory campaigns (not pausable,
	// not resumable across restarts) — useful only for tests.
	DataDir string
	// MaxRunning bounds concurrently executing campaigns (the slot
	// pool); further submissions queue FIFO. Default 4.
	MaxRunning int
	// MaxPerTenant bounds one tenant's live (non-terminal) campaigns.
	// Default 8.
	MaxPerTenant int
	// SubmitRate and SubmitBurst shape the per-tenant submission token
	// bucket. Defaults: 5/s, burst 10.
	SubmitRate  float64
	SubmitBurst int
	// UnitRate and UnitBurst shape the per-tenant unit admission
	// bucket, installed as every campaign's Gate; 0 disables unit
	// throttling.
	UnitRate  float64
	UnitBurst int
	// MaxPrograms and MaxWorkers bound a single submission. Defaults:
	// 100000 programs, worker count unbounded.
	MaxPrograms int
	MaxWorkers  int
	// Heartbeat is the SSE heartbeat cadence. Default 1s.
	Heartbeat time.Duration
	// TraceCapacity sizes each campaign's event ring. Default 4096.
	TraceCapacity int
	// Resume re-hosts the suspended campaigns recorded in DataDir's
	// manifest (as paused; POST .../resume continues them).
	Resume bool
	// Metrics, when set, receives the server's own instruments
	// (submissions, queue depth). Tenants always get their own
	// registries regardless.
	Metrics *metrics.Registry
}

// Server hosts campaigns behind an HTTP API. Create with New, mount as
// an http.Handler, and shut down with Drain (graceful, suspends every
// campaign durably) or Close (abrupt, cancels them).
type Server struct {
	opts    Options
	mux     *http.ServeMux
	reg     *metrics.Registry
	baseCtx context.Context
	cancel  context.CancelFunc

	mu        sync.Mutex
	tenants   map[string]*tenant
	campaigns map[string]*hosted
	order     []string
	queue     []*hosted
	running   int
	nextID    int
	corpus    *campaign.Corpus
	draining  bool
}

// tenant is one isolation domain: its own registry (debug-served), its
// own submission bucket, and its own unit-admission bucket shared by
// all its campaigns' Gates.
type tenant struct {
	name   string
	reg    *metrics.Registry
	debug  http.Handler
	submit *limiter
	units  *limiter
}

// hosted is one campaign under management. Scheduling fields
// (queued, holdsSlot) are guarded by Server.mu; the campaign itself is
// internally synchronized.
type hosted struct {
	id      string
	tenant  string
	created time.Time
	cfg     cli.Config
	camp    *campaign.Campaign
	trace   *metrics.Trace
	// queued: waiting for a slot (still StateNew). holdsSlot: counted
	// in Server.running. suspended: restored from a manifest, waiting
	// for an explicit resume.
	queued    bool
	holdsSlot bool
	suspended bool
	repros    map[string]*reproDoc
}

// New returns a server over the options, re-hosting suspended
// campaigns from the manifest when opts.Resume is set.
func New(opts Options) (*Server, error) {
	if opts.MaxRunning <= 0 {
		opts.MaxRunning = 4
	}
	if opts.MaxPerTenant <= 0 {
		opts.MaxPerTenant = 8
	}
	if opts.SubmitRate == 0 {
		opts.SubmitRate = 5
	}
	if opts.SubmitBurst <= 0 {
		opts.SubmitBurst = 10
	}
	if opts.UnitBurst <= 0 {
		opts.UnitBurst = 16
	}
	if opts.MaxPrograms <= 0 {
		opts.MaxPrograms = 100000
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = time.Second
	}
	if opts.TraceCapacity <= 0 {
		opts.TraceCapacity = 4096
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		reg:       opts.Metrics,
		baseCtx:   ctx,
		cancel:    cancel,
		tenants:   map[string]*tenant{},
		campaigns: map[string]*hosted{},
		corpus:    campaign.NewCorpus(),
	}
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	if opts.DataDir != "" {
		if err := os.MkdirAll(filepath.Join(opts.DataDir, "campaigns"), 0o755); err != nil {
			cancel()
			return nil, err
		}
		if err := s.loadCorpus(); err != nil {
			cancel()
			return nil, err
		}
		if err := s.loadManifest(opts.Resume); err != nil {
			cancel()
			return nil, err
		}
	}
	s.routes()
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close abruptly cancels every campaign and waits for none of them:
// the test-and-crash path. Production shutdown is Drain.
func (s *Server) Close() { s.cancel() }

// routes wires the HTTP API (Go 1.22 pattern routing).
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /api/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /api/campaigns", s.handleList)
	s.mux.HandleFunc("GET /api/campaigns/{id}", s.handleInspect)
	s.mux.HandleFunc("POST /api/campaigns/{id}/pause", s.handlePause)
	s.mux.HandleFunc("POST /api/campaigns/{id}/resume", s.handleResume)
	s.mux.HandleFunc("POST /api/campaigns/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /api/campaigns/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /api/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/campaigns/{id}/repro", s.handleRepro)
	s.mux.HandleFunc("GET /api/corpus", s.handleCorpus)
	s.mux.HandleFunc("GET /api/tenants", s.handleTenants)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	s.mux.HandleFunc("/debug/tenants/{tenant}/", s.handleTenantDebug)
	s.mux.Handle("/debug/server/", http.StripPrefix("/debug/server", metrics.Handler(s.reg, nil)))
}

var tenantNameRe = regexp.MustCompile(`^[A-Za-z0-9_-]{1,32}$`)

// tenantFor resolves (creating on first use) the request's tenant from
// the X-Tenant header; absent means "default".
func (s *Server) tenantFor(r *http.Request) (*tenant, error) {
	name := r.Header.Get("X-Tenant")
	if name == "" {
		name = "default"
	}
	if !tenantNameRe.MatchString(name) {
		return nil, fmt.Errorf("invalid tenant name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantLocked(name), nil
}

func (s *Server) tenantLocked(name string) *tenant {
	t := s.tenants[name]
	if t == nil {
		reg := metrics.NewRegistry()
		t = &tenant{
			name:   name,
			reg:    reg,
			debug:  metrics.Handler(reg, nil),
			submit: newLimiter(s.opts.SubmitRate, s.opts.SubmitBurst),
			units:  newLimiter(s.opts.UnitRate, s.opts.UnitBurst),
		}
		s.tenants[name] = t
	}
	return t
}

// lookup returns the tenant's campaign, or nil — a campaign owned by
// another tenant is indistinguishable from a missing one.
func (s *Server) lookup(t *tenant, id string) *hosted {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.campaigns[id]
	if h == nil || h.tenant != t.name {
		return nil
	}
	return h
}

// campaignStateDir is one campaign's journal directory under DataDir.
func (s *Server) campaignStateDir(id string) string {
	if s.opts.DataDir == "" {
		return ""
	}
	return filepath.Join(s.opts.DataDir, "campaigns", id)
}

// host builds the hosted campaign for a validated config: per-campaign
// state dir, per-tenant registry scope, its own trace ring, and the
// tenant's unit bucket as the admission gate. Caller holds s.mu.
func (s *Server) hostLocked(t *tenant, cfg cli.Config, resume bool) (*hosted, error) {
	id := fmt.Sprintf("c%06d", s.nextID)
	cfg.StateDir = s.campaignStateDir(id)
	cfg.Resume = resume
	opts, err := cfg.CampaignOptions()
	if err != nil {
		return nil, err
	}
	trace := metrics.NewTrace(s.opts.TraceCapacity)
	opts.Metrics = t.reg.Scope(id)
	opts.Trace = trace
	opts.Gate = t.units.gate()
	h := &hosted{
		id:      id,
		tenant:  t.name,
		created: time.Now().UTC(),
		cfg:     cfg,
		camp:    campaign.New(opts),
		trace:   trace,
		repros:  map[string]*reproDoc{},
	}
	s.nextID++
	s.campaigns[id] = h
	s.order = append(s.order, id)
	go s.watch(h)
	return h, nil
}

// admitLocked starts the campaign if a slot is free, else queues it.
func (s *Server) admitLocked(h *hosted) {
	if s.running < s.opts.MaxRunning {
		if s.startLocked(h) {
			return
		}
	}
	h.queued = true
	s.queue = append(s.queue, h)
}

// startLocked launches (or resumes) a campaign into a slot; returns
// false when the campaign cannot start (already terminal).
func (s *Server) startLocked(h *hosted) bool {
	var err error
	switch h.camp.State() {
	case campaign.StateNew:
		err = h.camp.Start(s.baseCtx)
	case campaign.StatePaused:
		err = h.camp.Resume()
	default:
		return false
	}
	if err != nil {
		return false
	}
	h.queued = false
	h.suspended = false
	h.holdsSlot = true
	s.running++
	return true
}

// releaseSlotLocked returns a campaign's slot to the pool.
func (s *Server) releaseSlotLocked(h *hosted) {
	if h.holdsSlot {
		h.holdsSlot = false
		s.running--
	}
}

// dispatchLocked starts queued campaigns while slots are free.
func (s *Server) dispatchLocked() {
	if s.draining {
		return
	}
	for s.running < s.opts.MaxRunning && len(s.queue) > 0 {
		h := s.queue[0]
		s.queue = s.queue[1:]
		if !s.startLocked(h) {
			h.queued = false // terminal while queued (cancelled); drop
		}
	}
}

// watch waits for a campaign to reach a terminal state, then settles
// its slot, merges its bugs into the cross-campaign corpus, and
// dispatches the queue.
func (s *Server) watch(h *hosted) {
	<-h.camp.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseSlotLocked(h)
	if r := h.camp.Report(); r != nil && r.Complete() {
		s.corpus.MergeReport(r)
		s.saveCorpusLocked()
	}
	s.saveManifestLocked()
	s.dispatchLocked()
}

// Drain gracefully suspends the server: no new submissions or resumes
// are admitted, every running campaign is paused (each syncing its
// journal), and the manifest is saved so a server restarted with
// Options.Resume re-hosts them.
// Campaigns that cannot pause (non-durable: no DataDir) are cancelled
// instead. Blocks until every campaign has stopped executing.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var live []*hosted
	for _, id := range s.order {
		h := s.campaigns[id]
		if st := h.camp.State(); st == campaign.StateRunning || st == campaign.StatePausing {
			live = append(live, h)
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for _, h := range live {
			wg.Add(1)
			go func(h *hosted) {
				defer wg.Done()
				if err := h.camp.Pause(); err != nil {
					h.camp.Cancel() //nolint:errcheck // best-effort drain
				}
				s.mu.Lock()
				s.releaseSlotLocked(h)
				s.mu.Unlock()
			}(h)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel() // out of time: hard-cancel what remains
		<-done
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.saveManifestLocked()
	return nil
}

// campaignView is the JSON shape of one campaign in list/inspect
// responses.
type campaignView struct {
	ID      string    `json:"id"`
	Tenant  string    `json:"tenant"`
	Created time.Time `json:"created"`
	Queued  bool      `json:"queued,omitempty"`
	// Suspended marks a campaign re-hosted from the manifest that has
	// not been resumed yet (its lifecycle state is still "new", but its
	// journal holds a paused run).
	Suspended bool            `json:"suspended,omitempty"`
	Config    cli.Config      `json:"config"`
	Status    campaign.Status `json:"status"`
	Error     string          `json:"error,omitempty"`
}

func (s *Server) viewOf(h *hosted) campaignView {
	st := h.camp.Status()
	v := campaignView{
		ID:        h.id,
		Tenant:    h.tenant,
		Created:   h.created,
		Queued:    h.queued,
		Suspended: h.suspended,
		Config:    h.cfg,
		Status:    st,
	}
	if st.Err != nil {
		v.Error = st.Err.Error()
	}
	return v
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !t.submit.allow() {
		http.Error(w, "submission rate limit exceeded", http.StatusTooManyRequests)
		return
	}
	cfg := cli.NewConfig()
	// A field the config does not have is refused, not ignored: a
	// misspelt or retired knob must not silently run a different
	// campaign than the submitter asked for.
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		http.Error(w, fmt.Sprintf("bad campaign config: %v", err), http.StatusBadRequest)
		return
	}
	if err := cfg.Validate(s.opts.MaxPrograms, s.opts.MaxWorkers); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	liveCount := 0
	for _, h := range s.campaigns {
		if h.tenant == t.name && !h.camp.State().Terminal() {
			liveCount++
		}
	}
	if liveCount >= s.opts.MaxPerTenant {
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("tenant %s already has %d live campaigns", t.name, liveCount), http.StatusTooManyRequests)
		return
	}
	h, err := s.hostLocked(t, *cfg, false)
	if err != nil {
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.admitLocked(h)
	s.saveManifestLocked()
	view := s.viewOf(h)
	s.mu.Unlock()
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, view)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	var views []campaignView
	for _, id := range s.order {
		h := s.campaigns[id]
		if h.tenant == t.name {
			views = append(views, s.viewOf(h))
		}
	}
	s.mu.Unlock()
	writeJSON(w, struct {
		Campaigns []campaignView `json:"campaigns"`
	}{views})
}

func (s *Server) handleInspect(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h := s.lookup(t, r.PathValue("id"))
	if h == nil {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	view := s.viewOf(h)
	s.mu.Unlock()
	writeJSON(w, view)
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h := s.lookup(t, r.PathValue("id"))
	if h == nil {
		http.NotFound(w, r)
		return
	}
	// Pause blocks until the journal is synced; s.mu is not held,
	// so other requests proceed meanwhile.
	if err := h.camp.Pause(); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.mu.Lock()
	s.releaseSlotLocked(h)
	s.saveManifestLocked()
	s.dispatchLocked()
	view := s.viewOf(h)
	s.mu.Unlock()
	writeJSON(w, view)
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h := s.lookup(t, r.PathValue("id"))
	if h == nil {
		http.NotFound(w, r)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	st := h.camp.State()
	resumable := st == campaign.StatePaused || (st == campaign.StateNew && h.suspended)
	if !resumable || h.queued {
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("campaign %s is %s, not paused", h.id, st), http.StatusConflict)
		return
	}
	s.admitLocked(h)
	s.saveManifestLocked()
	view := s.viewOf(h)
	s.mu.Unlock()
	writeJSON(w, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h := s.lookup(t, r.PathValue("id"))
	if h == nil {
		http.NotFound(w, r)
		return
	}
	if err := h.camp.Cancel(); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	// The watcher settles the slot and the queue via Done.
	s.mu.Lock()
	view := s.viewOf(h)
	s.mu.Unlock()
	writeJSON(w, view)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h := s.lookup(t, r.PathValue("id"))
	if h == nil {
		http.NotFound(w, r)
		return
	}
	report := h.camp.Report()
	if report == nil {
		http.Error(w, fmt.Sprintf("campaign %s is %s; report not available", h.id, h.camp.State()), http.StatusConflict)
		return
	}
	writeJSON(w, report.Doc())
}

func (s *Server) handleCorpus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, s.corpus)
}

func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	type tenantView struct {
		Name      string `json:"name"`
		Campaigns int    `json:"campaigns"`
	}
	s.mu.Lock()
	counts := map[string]int{}
	for _, h := range s.campaigns {
		counts[h.tenant]++
	}
	var views []tenantView
	for name := range s.tenants {
		views = append(views, tenantView{Name: name, Campaigns: counts[name]})
	}
	s.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].Name < views[j].Name })
	writeJSON(w, struct {
		Tenants []tenantView `json:"tenants"`
	}{views})
}

func (s *Server) handleTenantDebug(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	s.mu.Lock()
	t := s.tenants[name]
	s.mu.Unlock()
	if t == nil {
		http.NotFound(w, r)
		return
	}
	http.StripPrefix("/debug/tenants/"+name, t.debug).ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response write errors are the client's problem
}
