// Package telemetry is the pull side of the observability plane: an
// optional HTTP listener a daemon or experiment binary opens with
// -telemetry, serving every row of plane.Planes on its path
//
//	/statusz  the component's plain-text status report (Config.Status)
//	/metrics  the live trace set
//	/seriesz  the time-series sampler's latest window (?format=json
//	          serves the full windowed series)
//	/profilez the critical-path attribution profile of the live span
//	          recorder
//	/flightz  the flight recorder's recent events
//	/debug/pprof/...  the standard Go profiler endpoints
//
// A text plane serves its text. A structured plane serves Prometheus
// text exposition by default and its wire JSON with ?format=json.
// Nothing here runs unless the listener is opened, so the disabled
// path costs exactly nothing.
package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"npss/internal/plane"
)

// Config selects what /statusz serves: the component's status report,
// or a one-line placeholder when Status is nil. Every other endpoint
// serves the process globals (the trace set, the flight recorder, the
// active sampler and span recorder), which tests swap to inject state.
type Config struct {
	Status func() string
}

// Server is a running telemetry listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start opens the telemetry listener on addr (":0" picks a free
// port). The HTTP server runs until Close.
func Start(addr string, cfg Config) (*Server, error) {
	if cfg.Status == nil {
		cfg.Status = func() string { return "telemetry: no status source configured\n" }
	}

	mux := http.NewServeMux()
	for _, p := range plane.Planes {
		mux.HandleFunc(p.Path, handler(p, cfg.Status))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// handler serves one plane: a text plane's text, a structured plane's
// Prometheus exposition, or its wire JSON with ?format=json.
func handler(p plane.Plane, status func() string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if p.Text == nil && r.URL.Query().Get("format") != "json" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			p.Snapshot().WriteProm(w)
			return
		}
		data, err := p.Answer(status)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if p.Text != nil {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "application/json")
		}
		w.Write(data)
	}
}

// Addr returns the listener's actual address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and the HTTP server.
func (s *Server) Close() error { return s.srv.Close() }
