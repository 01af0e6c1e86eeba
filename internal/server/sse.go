package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/campaign"
)

// handleEvents streams a campaign's live activity as Server-Sent
// Events. Three event types interleave:
//
//   - "trace":     structured pipeline events (verdicts, retries,
//     faults, breaker transitions, chaos injections) drained from the
//     campaign's trace ring, cursor-tracked by event ID so nothing in
//     the retained window is dropped or repeated;
//   - "heartbeat": the same one-line progress summary the CLIs print
//     (units/s, bugs, breakers, journal lag) plus the full Status
//     snapshot as JSON, at the server's heartbeat cadence;
//   - "done":      the terminal state, after which the stream closes.
//
// The stream is observational: it polls the trace ring rather than
// hooking the pipeline, so a slow SSE consumer can never backpressure
// the campaign.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	h := s.lookup(w, r)
	if h == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	poll := time.NewTicker(150 * time.Millisecond)
	defer poll.Stop()
	beat := time.NewTicker(s.opts.Heartbeat)
	defer beat.Stop()

	cursor := h.trace.Total() - int64(s.opts.TraceCapacity)
	if cursor < 0 {
		cursor = 0
	}
	prev := h.camp.Status()
	lastBeat := time.Now()
	emit := func(event string, v any) bool {
		raw, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, raw); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	for {
		select {
		case <-r.Context().Done():
			return
		case <-h.camp.Done():
			// Drain what the ring still holds, then close with the
			// terminal state.
			cursor = s.emitTrace(h, cursor, emit)
			emit("done", h.camp.Status())
			return
		case <-poll.C:
			if cursor = s.emitTrace(h, cursor, emit); cursor < 0 {
				return
			}
		case now := <-beat.C:
			cur := h.camp.Status()
			if !emit("heartbeat", heartbeatEvent{
				Line:   campaign.HeartbeatLine(prev, cur, now.Sub(lastBeat)),
				Status: cur,
			}) {
				return
			}
			prev, lastBeat = cur, now
		}
	}
}

// heartbeatEvent is one SSE heartbeat payload: the human-readable line
// the CLIs print, plus the structured snapshot it was rendered from.
type heartbeatEvent struct {
	Line   string          `json:"line"`
	Status campaign.Status `json:"status"`
}

// emitTrace streams ring events past the cursor, returning the new
// cursor (or -1 when the client is gone). If the consumer fell behind
// the ring's retained window the gap is skipped — the ring already
// overwrote it.
func (s *Server) emitTrace(h *hosted, cursor int64, emit func(string, any) bool) int64 {
	total := h.trace.Total()
	if total <= cursor {
		return cursor
	}
	fresh := total - cursor
	if fresh > int64(s.opts.TraceCapacity) {
		fresh = int64(s.opts.TraceCapacity)
	}
	for _, e := range h.trace.Tail(int(fresh)) {
		if e.ID < cursor {
			continue
		}
		if !emit("trace", e) {
			return -1
		}
	}
	return total
}
