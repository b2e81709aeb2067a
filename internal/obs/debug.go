package obs

import (
	"encoding/json"
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugServer is the opt-in HTTP debug endpoint: registry snapshots as
// JSON under /metrics, expvar under /debug/vars, and the pprof profilers
// under /debug/pprof/. It binds its own mux — nothing is registered on
// http.DefaultServeMux — so embedding the engine never exposes profiling
// unless asked to.
type DebugServer struct {
	ln     net.Listener
	srv    *http.Server
	served chan error // closed send of the Serve result; joined in Close
}

// DebugMux builds the debug route set on a fresh mux: registry
// snapshots as JSON under /metrics, the slow log under /slow when one is
// given (nil mounts no /slow), expvar under /debug/vars, and the pprof
// profilers under /debug/pprof/. Callers that already run an HTTP
// listener (cmd/segdiffd) mount these routes on their own mux;
// ServeDebug wraps them in a standalone server.
func DebugMux(reg *Registry, slow *SlowLog) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, reg.Snapshot())
	})
	if slow != nil {
		mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, slow.Entries())
		})
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeDebug starts a debug server for reg on addr (for example
// "127.0.0.1:0" to pick a free port; the chosen address is available from
// Addr). It has no /slow route. The server runs until Close.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &DebugServer{
		ln:     ln,
		srv:    &http.Server{Handler: DebugMux(reg, nil)},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// Addr returns the address the server is listening on.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close shuts the server down, joins the serve goroutine, and returns
// any error other than the expected shutdown sentinel.
func (d *DebugServer) Close() error {
	err := d.srv.Close()
	if serr := <-d.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
