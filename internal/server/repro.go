package server

import (
	"fmt"
	"net/http"

	"repro/internal/campaign"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/reduce"
	"repro/internal/translate"
)

// reproDoc is one served repro: the reduced triggering program, both as
// IR and translated to the compiler's source language.
type reproDoc struct {
	Bug      string `json:"bug"`
	Compiler string `json:"compiler"`
	Language string `json:"language"`
	// Kind is the input kind whose derivation reproduced the trigger.
	Kind string `json:"kind"`
	// Seed is the campaign unit seed the program re-derives from.
	Seed int64 `json:"seed"`
	// Nodes counts IR nodes before and after reduction.
	Nodes        int    `json:"nodes"`
	ReducedNodes int    `json:"reduced_nodes"`
	IR           string `json:"ir"`
	Source       string `json:"source"`
}

// handleRepro re-derives, verifies, and reduces the triggering program
// for one found bug (?bug=ID), then serves it as IR plus translated
// source. Derivation runs the campaign's own Generate and Mutate stages
// on the unit's first triggering seed, so the served program is the
// program the campaign actually compiled, shrunk through the sandboxed
// reducer.
// Results are cached per bug: reduction costs thousands of probe
// compiles.
func (s *Server) handleRepro(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(w, r)
	if h == nil {
		return
	}
	bugID := r.URL.Query().Get("bug")
	if bugID == "" {
		http.Error(w, "missing ?bug=ID", http.StatusBadRequest)
		return
	}
	report := h.camp.Report()
	if report == nil {
		http.Error(w, fmt.Sprintf("campaign %s is %s; repros not available yet", h.id, h.camp.State()), http.StatusConflict)
		return
	}
	s.mu.Lock()
	doc := h.repros[bugID]
	s.mu.Unlock()
	if doc == nil {
		var err error
		doc, err = buildRepro(report, bugID)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		s.mu.Lock()
		h.repros[bugID] = doc
		s.mu.Unlock()
	}
	writeJSON(w, doc)
}

// buildRepro re-derives the first triggering program for the bug and
// reduces it.
func buildRepro(report *campaign.Report, bugID string) (*reproDoc, error) {
	in, comp, err := report.Trigger(bugID)
	if err != nil {
		return nil, err
	}
	reduced := reduce.ForBug(in.Prog, harness.WrapCompiler(comp), bugID, report.Opts.Harness)
	return &reproDoc{
		Bug:          bugID,
		Compiler:     comp.Name(),
		Language:     comp.Language(),
		Kind:         in.Kind.String(),
		Seed:         report.Found[bugID].FirstSeed,
		Nodes:        ir.CountNodes(in.Prog),
		ReducedNodes: ir.CountNodes(reduced),
		IR:           ir.Print(reduced),
		Source:       translate.ByName(comp.Language()).Translate(reduced),
	}, nil
}
