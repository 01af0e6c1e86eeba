// Package server is the long-running host for fuzzing campaigns: the
// campaign lifecycle library behind an HTTP API. Clients submit
// campaign configurations (the same JSON shape internal/cli builds from
// flags), then list, inspect, pause, resume, and cancel them; verdicts
// and heartbeats stream out over SSE; a cross-campaign bug corpus
// accumulates across every campaign; reduced repro programs are served
// per found bug.
//
// Scheduling is slot-based: at most MaxRunning campaigns execute at
// once and the rest queue FIFO; pausing a campaign frees its slot
// (suspension is durable, so a paused campaign costs nothing). Each
// campaign's instruments live in the server registry under its ID,
// served at /debug/server/.
//
// The server is also the fabric's worker: a submission carrying a
// shard range runs that slice of a larger campaign's seed space, is
// refused with 409 rather than queued when no slot is free, and ships
// its journal from GET /api/campaigns/{id}/journal once it has ended.
//
// A campaign moves new|paused → running → done|cancelled|failed, and
// Pause takes a running one back to paused. Every campaign is durable
// under DataDir, so Drain (the SIGTERM path) is just Pause for every
// running campaign: each syncs its journal, and a server restarted with
// Resume re-hosts them paused, as their journals left them, so
// POST …/resume continues them exactly where they stopped. None of this
// bends the determinism contract — slots only reschedule work, so a
// hosted campaign reports bit-for-bit what a solo CLI run of the same
// options reports.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// Options configures a Server.
type Options struct {
	// DataDir is the root of all persistent state: one journal state
	// directory per campaign, the cross-campaign corpus, and the
	// manifest that lets a restarted server re-host suspended
	// campaigns. Empty means fully in-memory campaigns (not pausable,
	// not resumable across restarts, no shard submissions) — useful
	// only for tests.
	DataDir string
	// MaxRunning bounds concurrently executing campaigns (the slot
	// pool); further submissions queue FIFO. Default 4.
	MaxRunning int
	// MaxPrograms and MaxWorkers bound a single submission. Defaults:
	// 100000 programs, worker count unbounded.
	MaxPrograms int
	MaxWorkers  int
	// Heartbeat is the SSE heartbeat cadence. Default 1s.
	Heartbeat time.Duration
	// TraceCapacity sizes each campaign's event ring. Default 4096.
	TraceCapacity int
	// Resume re-hosts the suspended campaigns recorded in DataDir's
	// manifest: paused ones paused, never-started ones new, and
	// POST .../resume runs either.
	Resume bool
	// Metrics, when set, receives the server's instruments: each
	// campaign's under its ID.
	Metrics *metrics.Registry
	// Chaos, when non-nil, injects worker-level faults into shard
	// campaigns, drawn per (shard, attempt). Only tests set it.
	Chaos *ChaosOptions
}

// Server hosts campaigns behind an HTTP API. Create with New, mount as
// an http.Handler, and shut down with Drain (graceful, suspends every
// campaign durably) or Close (abrupt, cancels them).
type Server struct {
	opts     Options
	mux      *http.ServeMux
	reg      *metrics.Registry
	baseCtx  context.Context
	cancel   context.CancelFunc
	watchers sync.WaitGroup
	// dead is set by a chaos kill: the server answers nothing from then
	// on, like a killed process.
	dead atomic.Bool

	mu        sync.Mutex
	campaigns map[string]*hosted
	order     []string
	queue     []*hosted
	running   int
	nextID    int
	corpus    *campaign.Corpus
	draining  bool
}

// hosted is one campaign under management. Scheduling fields
// (queued, holdsSlot) are guarded by Server.mu; the campaign itself is
// internally synchronized.
type hosted struct {
	id      string
	created time.Time
	cfg     cli.Config
	camp    *campaign.Campaign
	trace   *metrics.Trace
	// faults is the chaos draw of a shard campaign.
	faults Faults
	// queued: waiting for a slot (new or paused). holdsSlot: counted
	// in Server.running.
	queued    bool
	holdsSlot bool
	repros    map[string]*reproDoc
}

// New returns a server over the options, re-hosting suspended
// campaigns from the manifest when opts.Resume is set.
func New(opts Options) (*Server, error) {
	if opts.MaxRunning <= 0 {
		opts.MaxRunning = 4
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

// ServeHTTP implements http.Handler. A chaos-killed server answers
// nothing — the request hangs until the client gives up, exactly what
// a SIGKILLed process looks like from the far side.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.dead.Load() {
		// Drain the body first: net/http only watches for the client
		// hanging up once the request body is consumed, so parking on the
		// context with an unread POST body would hang this handler
		// forever (past the client's own timeout), wedging shutdown.
		io.Copy(io.Discard, r.Body) //nolint:errcheck // the bytes are irrelevant
		<-r.Context().Done()
		return
	}
	s.mux.ServeHTTP(w, r)
}

// Close abruptly cancels every campaign and returns once the running
// ones have stopped and their watchers have settled: the test-and-crash
// path. Production shutdown is Drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	s.watchers.Wait()
}

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
	s.mux.HandleFunc("GET /api/campaigns/{id}/journal", s.handleJournal)
	s.mux.HandleFunc("GET /api/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/campaigns/{id}/repro", s.handleRepro)
	s.mux.HandleFunc("GET /api/corpus", s.handleCorpus)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	s.mux.Handle("/debug/server/", http.StripPrefix("/debug/server", metrics.Handler(s.reg, nil)))
}

// lookup returns the request's {id} campaign, answering 404 itself when
// there is none.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *hosted {
	s.mu.Lock()
	h := s.campaigns[r.PathValue("id")]
	s.mu.Unlock()
	if h == nil {
		http.NotFound(w, r)
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

// hostLocked builds the hosted campaign for a validated config under
// the given ID: its state dir, its registry scope, its own trace ring,
// and — for a shard campaign under Options.Chaos — its drawn faults.
// Caller holds s.mu.
func (s *Server) hostLocked(id string, cfg cli.Config, resume bool) (*hosted, error) {
	cfg.StateDir = s.campaignStateDir(id)
	cfg.Resume = resume
	opts, err := cfg.CampaignOptions()
	if err != nil {
		return nil, err
	}
	trace := metrics.NewTrace(s.opts.TraceCapacity)
	opts.Metrics = s.reg.Scope(id)
	opts.Trace = trace
	h := &hosted{
		id:      id,
		created: time.Now().UTC(),
		cfg:     cfg,
		trace:   trace,
		repros:  map[string]*reproDoc{},
	}
	if sh := cfg.Shard; sh != nil {
		h.faults = s.opts.Chaos.Decide(sh.Index, sh.Attempt, opts.Programs)
	}
	if h.faults.Kill {
		// The kill rides the admission gate: scheduling-only by
		// construction, so the units folded before it are untouched.
		admitted := 0
		opts.Gate = func(context.Context) error {
			admitted++
			if admitted > h.faults.KillAfter {
				s.die()
				return context.Canceled
			}
			return nil
		}
	}
	h.camp = campaign.New(opts)
	s.campaigns[id] = h
	s.order = append(s.order, id)
	s.watchers.Add(1)
	go s.watch(h)
	return h, nil
}

// die is the in-process chaos kill: stop answering HTTP and cancel
// every campaign.
func (s *Server) die() {
	s.dead.Store(true)
	s.cancel()
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

// startLocked runs a new or paused campaign in a slot; returns false
// when the campaign cannot start (already terminal).
func (s *Server) startLocked(h *hosted) bool {
	if h.camp.Start(s.baseCtx) != nil {
		return false
	}
	h.queued = false
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
// dispatches the queue. A shard campaign's report is a slice of the
// coordinator's campaign, so it stays out of the corpus and the
// manifest. Once the server is closed watch waits only for a campaign
// that is running, since no other will end.
func (s *Server) watch(h *hosted) {
	defer s.watchers.Done()
	select {
	case <-h.camp.Done():
	case <-s.baseCtx.Done():
		if h.camp.State() != campaign.StateRunning {
			return
		}
		<-h.camp.Done()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseSlotLocked(h)
	if h.cfg.Shard == nil {
		if r := h.camp.Report(); r != nil && r.Complete() {
			s.corpus.MergeReport(r)
			s.saveCorpusLocked()
		}
		s.saveManifestLocked()
	}
	s.dispatchLocked()
}

// busyLocked reports whether every slot holds a live campaign. A
// campaign that has just ended can hold its slot until its watcher
// runs; its slot is released here instead, so a shard submitted right
// after the previous one finished is not refused.
func (s *Server) busyLocked() bool {
	for _, h := range s.campaigns {
		if h.holdsSlot && h.camp.State().Terminal() {
			s.releaseSlotLocked(h)
		}
	}
	return s.running >= s.opts.MaxRunning
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
		if h.camp.State() == campaign.StateRunning {
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
	Created time.Time `json:"created"`
	Queued  bool      `json:"queued,omitempty"`
	// Suspended marks a campaign that POST …/resume would run (see
	// suspendedLocked).
	Suspended bool            `json:"suspended,omitempty"`
	Config    cli.Config      `json:"config"`
	Status    campaign.Status `json:"status"`
	Error     string          `json:"error,omitempty"`
}

// suspendedLocked reports whether h waits for POST …/resume: not queued,
// and paused or new (a new one that is not queued is a campaign
// re-hosted before it ever started). Caller holds s.mu.
func suspendedLocked(h *hosted) bool {
	st := h.camp.State()
	return !h.queued && (st == campaign.StatePaused || st == campaign.StateNew)
}

func (s *Server) viewOf(h *hosted) campaignView {
	st := h.camp.Status()
	v := campaignView{
		ID:        h.id,
		Created:   h.created,
		Queued:    h.queued,
		Suspended: suspendedLocked(h),
		Config:    h.cfg,
		Status:    st,
	}
	if st.Err != nil {
		v.Error = st.Err.Error()
	}
	return v
}

// handleSubmit hosts a campaign. A shard campaign (one carrying a shard
// range) is a fabric lease: it needs a DataDir, since its journal is
// what it ships, and it is refused with 409 rather than queued when no
// slot is free, so the coordinator can lease the shard elsewhere. Its
// grant writes no document, so it answers without waiting on a disk
// that a loaded worker may keep busy.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
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
	if cfg.Shard != nil && s.opts.DataDir == "" {
		http.Error(w, "a shard campaign needs a server with a data directory", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	if cfg.Shard != nil && s.busyLocked() {
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("busy: %d of %d slots running", s.running, s.opts.MaxRunning), http.StatusConflict)
		return
	}
	h, err := s.hostLocked(fmt.Sprintf("c%06d", s.nextID), *cfg, false)
	if err != nil {
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.nextID++
	s.admitLocked(h)
	if cfg.Shard == nil {
		s.saveManifestLocked()
	}
	view := s.viewOf(h)
	s.mu.Unlock()
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, view)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	var views []campaignView
	for _, id := range s.order {
		views = append(views, s.viewOf(s.campaigns[id]))
	}
	s.mu.Unlock()
	writeJSON(w, struct {
		Campaigns []campaignView `json:"campaigns"`
	}{views})
}

// handleInspect answers one campaign's view. It is the fabric's
// heartbeat, so a stall-chaos shard hangs here: the shard keeps
// running, but the coordinator hears nothing.
func (s *Server) handleInspect(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(w, r)
	if h == nil {
		return
	}
	if h.faults.Stall {
		<-r.Context().Done()
		return
	}
	s.mu.Lock()
	view := s.viewOf(h)
	s.mu.Unlock()
	writeJSON(w, view)
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(w, r)
	if h == nil {
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
	h := s.lookup(w, r)
	if h == nil {
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	if !suspendedLocked(h) {
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("campaign %s is %s, not paused", h.id, h.camp.State()), http.StatusConflict)
		return
	}
	s.admitLocked(h)
	s.saveManifestLocked()
	view := s.viewOf(h)
	s.mu.Unlock()
	writeJSON(w, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(w, r)
	if h == nil {
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
	h := s.lookup(w, r)
	if h == nil {
		return
	}
	report := h.camp.Report()
	if report == nil {
		http.Error(w, fmt.Sprintf("campaign %s is %s; report not available", h.id, h.camp.State()), http.StatusConflict)
		return
	}
	writeJSON(w, report.Doc())
}

// handleJournal ships a campaign's raw journal image — the bytes
// journal.ReplayBytes accepts — once the campaign has ended; a fabric
// coordinator folds a shard's shipment into the merged report. A
// corrupt-chaos shard ships one byte flipped (the on-disk journal is
// untouched), exercising the coordinator's quarantine and re-run path.
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(w, r)
	if h == nil {
		return
	}
	select {
	case <-h.camp.Done():
	default:
		http.Error(w, fmt.Sprintf("campaign %s is %s; journal not final", h.id, h.camp.State()), http.StatusConflict)
		return
	}
	if h.cfg.StateDir == "" {
		http.Error(w, fmt.Sprintf("campaign %s keeps no journal", h.id), http.StatusNotFound)
		return
	}
	store, err := journal.Open(h.cfg.StateDir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b, err := store.JournalBytes()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if h.faults.Corrupt && len(b) > 0 {
		b = append([]byte(nil), b...)
		b[len(b)/2] ^= 0xff
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(b)
}

func (s *Server) handleCorpus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, s.corpus)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response write errors are the client's problem
}
