package metrics

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Server is the live debug endpoint of a running campaign:
//
//	/metrics          registry snapshot as JSON
//	/events           most recent trace events as JSON (?n=K tails K)
//	/healthz          liveness probe
//	/debug/pprof/...  the standard Go profiling handlers
//
// Everything served is a point-in-time copy; handlers never block an
// instrument writer for longer than one snapshot.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Handler returns the debug endpoints (/metrics, /events, /healthz)
// over the given registry and trace, either of which may be nil, as a
// plain http.Handler — mountable under any prefix, which is how the
// fuzzing server exposes its debug surface under /debug/server/.
func Handler(reg *Registry, trace *Trace) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, reg.Snapshot())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if q := r.URL.Query().Get("n"); q != "" {
			n, _ = strconv.Atoi(q)
		}
		writeJSON(w, struct {
			Total  int64   `json:"total"`
			Events []Event `json:"events"`
		}{trace.Total(), trace.Tail(n)})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// Serve starts the debug server on addr (":0" picks a free port) over
// the given registry and trace, either of which may be nil.
func Serve(addr string, reg *Registry, trace *Trace) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", Handler(reg, trace))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the server's bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort debug endpoint
}
