package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/journal"
)

// manifest is the durable index of hosted campaigns: enough to re-host
// every suspended one after a restart. Campaign payload state (journal,
// reduced repros) lives in each campaign's own state
// directory; the manifest only records what was hosted.
type manifest struct {
	NextID    int             `json:"next_id"`
	Campaigns []manifestEntry `json:"campaigns"`
}

type manifestEntry struct {
	ID      string     `json:"id"`
	Created time.Time  `json:"created"`
	Config  cli.Config `json:"config"`
	State   string     `json:"state"`
}

// The server's documents in DataDir.
const (
	manifestDoc = "manifest.json"
	corpusDoc   = "corpus.json"
)

func (s *Server) manifestPath() string { return filepath.Join(s.opts.DataDir, manifestDoc) }
func (s *Server) corpusPath() string   { return filepath.Join(s.opts.DataDir, corpusDoc) }

// saveManifestLocked writes the manifest atomically. Caller holds
// s.mu. A DataDir-less server skips persistence. Shard campaigns are
// left out: a restarted worker has nothing to re-host, because the
// coordinator leases a lost shard again.
func (s *Server) saveManifestLocked() {
	if s.opts.DataDir == "" {
		return
	}
	m := manifest{NextID: s.nextID}
	for _, id := range s.order {
		h := s.campaigns[id]
		if h.cfg.Shard != nil {
			continue
		}
		m.Campaigns = append(m.Campaigns, manifestEntry{
			ID:      h.id,
			Created: h.created,
			Config:  h.cfg,
			State:   h.camp.State().String(),
		})
	}
	s.writeDoc(manifestDoc, m) //nolint:errcheck // best-effort; next transition rewrites
}

// loadManifest reads the manifest and, when resume is set, re-hosts
// every non-terminal campaign without starting it: built with
// Resume=true, so one whose journal holds units is paused with them and
// one that never started is new. POST .../resume runs either. Terminal
// campaigns are not re-hosted; their state directories stay on disk.
func (s *Server) loadManifest(resume bool) error {
	raw, err := os.ReadFile(s.manifestPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("corrupt server manifest %s: %w", s.manifestPath(), err)
	}
	s.nextID = m.NextID
	if !resume {
		return nil
	}
	for _, e := range m.Campaigns {
		if terminalStateName(e.State) {
			continue
		}
		h, err := s.hostLocked(e.ID, e.Config, true)
		if err != nil {
			return fmt.Errorf("re-hosting campaign %s: %w", e.ID, err)
		}
		h.created = e.Created
	}
	return nil
}

// terminalStateName reports whether a manifest state string names a
// terminal lifecycle state.
func terminalStateName(name string) bool {
	switch name {
	case campaign.StateDone.String(), campaign.StateCancelled.String(), campaign.StateFailed.String():
		return true
	}
	return false
}

// loadCorpus restores the cross-campaign bug corpus.
func (s *Server) loadCorpus() error {
	raw, err := os.ReadFile(s.corpusPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, s.corpus); err != nil {
		return fmt.Errorf("corrupt server corpus %s: %w", s.corpusPath(), err)
	}
	return nil
}

// saveCorpusLocked persists the corpus atomically. Caller holds s.mu.
func (s *Server) saveCorpusLocked() {
	if s.opts.DataDir == "" {
		return
	}
	s.writeDoc(corpusDoc, s.corpus) //nolint:errcheck // re-merged on next completion
}

// writeDoc writes v as indented JSON with a trailing newline to the
// named document in DataDir through journal.Store.WriteDoc, so a crash
// mid-write never leaves a torn or unsynced document.
func (s *Server) writeDoc(name string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	store, err := journal.Open(s.opts.DataDir)
	if err != nil {
		return err
	}
	return store.WriteDoc(name, append(raw, '\n'))
}
