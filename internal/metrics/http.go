package metrics

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is the live observability endpoint: Prometheus text at
// /metrics, an expvar-compatible JSON dump at /debug/vars, and the
// standard net/http/pprof handlers under /debug/pprof/.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the endpoint on addr (host:port; port 0 picks a free
// one — read the bound address back with Addr). It returns as soon as
// the listener is up; requests are served in the background.
func Serve(addr string, c *Collector) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.probeTotals()
		c.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		c.probeTotals()
		c.reg.WriteExpvar(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("pilgrim self-observability\n  /metrics      Prometheus text\n  /debug/vars   expvar JSON\n  /debug/pprof/ pprof\n"))
	})
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }
