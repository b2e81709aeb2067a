package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"segdiff"
	"segdiff/internal/obs"
)

// statusWriter tracks what the handler actually sent, for metrics,
// panic recovery (a 500 can only be written while nothing has been),
// and the slow-request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(p)
}

// Flush forwards to the underlying writer so NDJSON responses stream.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// errStatus maps a handler error to its response status: decoder
// errors carry their own 4xx, an expired request deadline is a 504, a
// client that went away is a 499 (nginx's convention), an unknown
// sensor is a 404, and anything else is a genuine 500.
func errStatus(err error) int {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.code
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	case errors.Is(err, segdiff.ErrUnknownSensor):
		return http.StatusNotFound
	default:
		return http.StatusInternalServerError
	}
}

// endpoint wraps one /v1 handler with the request lifecycle: drain
// check, lane admission (fast-fail 429), per-request deadline, panic
// isolation, per-endpoint metrics, and the slow-request log. ln may be
// nil for unlaned endpoints (/v1/sensors).
func (s *Server) endpoint(name string, ln *lane, method string, h func(http.ResponseWriter, *http.Request) error) http.Handler {
	requests := s.reg.Counter("http_" + name + "_requests")
	errsByClass := map[int]*obs.Counter{
		4: s.reg.Counter("http_" + name + "_4xx"),
		5: s.reg.Counter("http_" + name + "_5xx"),
	}
	latency := s.reg.Histogram("http_" + name + "_ns")

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		sw := &statusWriter{ResponseWriter: w}
		reqID := s.nextRequestID()
		sw.Header().Set("X-Request-Id", reqID)
		start := time.Now()
		defer func() {
			if p := recover(); p != nil {
				if p == http.ErrAbortHandler { //nolint:errorlint // sentinel by identity
					panic(p)
				}
				// One request's bug must not take the server down: record
				// the panic, answer 500 if the response has not started,
				// and let the connection die if it has.
				s.panics.Inc()
				if !sw.wrote {
					http.Error(sw, fmt.Sprintf("internal error: %v", p), http.StatusInternalServerError)
				}
			}
			wall := time.Since(start)
			latency.Observe(wall.Nanoseconds())
			if c := errsByClass[sw.status/100]; c != nil {
				c.Inc()
			}
			s.slow.Note(obs.SlowQuery{
				SQL:    r.Method + " " + r.URL.RequestURI(),
				Wall:   wall,
				Rows:   sw.status,
				When:   time.Now(),
				Source: reqID + " " + name,
			})
		}()

		if r.Method != method {
			sw.Header().Set("Allow", method)
			http.Error(sw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if s.draining.Load() {
			http.Error(sw, "draining", http.StatusServiceUnavailable)
			return
		}
		timeout, err := parseTimeout(r.URL.Query(), s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
		if err != nil {
			http.Error(sw, err.Error(), errStatus(err))
			return
		}
		if ln != nil {
			if !ln.tryAcquire() {
				// Fast-fail backpressure: the lane is at capacity, so the
				// client retries rather than queueing here without bound.
				sw.Header().Set("Retry-After", "1")
				http.Error(sw, ln.name+" lane at capacity", http.StatusTooManyRequests)
				return
			}
			defer ln.release()
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		if hook := s.testHookRequest; hook != nil {
			hook(name)
		}
		if err := h(sw, r.WithContext(ctx)); err != nil {
			code := errStatus(err)
			if !sw.wrote {
				http.Error(sw, err.Error(), code)
			}
		}
	})
}

// maxSpan resolves the collection's window, the longest span any
// search may request. A zero option means the engine default (8 h);
// resolving it here keeps "span too long" a clean 400 at the decoder
// instead of an engine error behind a request that looked valid.
func (s *Server) maxSpan() time.Duration {
	if w := s.col.Options().Window; w > 0 {
		return w
	}
	return 8 * time.Hour
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// handleAppend ingests a JSON array of sensor batches through
// Collection.AppendAll. The body is fully decoded and validated before
// the collection is touched, so malformed input can never leave a
// partial write.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	batches, err := decodeAppendBody(body)
	if err != nil {
		return err
	}
	// The deadline is enforced up to the point of commit: once AppendAll
	// starts, each sensor's batch commits or aborts atomically on its
	// own (canceling a half-committed group would be worse than
	// finishing it), so the check happens before work begins.
	if err := r.Context().Err(); err != nil {
		return err
	}
	points := 0
	sensors := map[string]bool{}
	for _, b := range batches {
		points += len(b.Points)
		sensors[b.Sensor] = true
	}
	if err := s.col.AppendAll(batches); err != nil {
		return err
	}
	return writeJSON(w, map[string]int{"sensors": len(sensors), "points": points})
}

// searchBufBytes sizes a search response's write buffer: each flush is
// one chunk of the response, and a 4 KiB default would make a broad
// answer of hundreds of kilobytes cost hundreds of write calls.
const searchBufBytes = 64 << 10

// searchWriters reuses search responses' write buffers across requests.
var searchWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, searchBufBytes) }}

// searchHandler builds the shared drops/jumps handler. Results stream
// as NDJSON: one line per sensor, in sensor-name order, each line a
// SensorMatches object as encoding/json writes it (appendSensorMatches)
// — so a thousand-sensor response renders incrementally and a client can
// consume it line by line.
func (s *Server) searchHandler(jump bool) func(http.ResponseWriter, *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		p, err := parseSearchParams(r.URL.Query(), jump, s.maxSpan())
		if err != nil {
			return err
		}
		var results []segdiff.SensorMatches
		if jump {
			results, err = s.col.JumpsContext(r.Context(), p.Span, p.V, p.Sensors...)
		} else {
			results, err = s.col.DropsContext(r.Context(), p.Span, p.V, p.Sensors...)
		}
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		bw := searchWriters.Get().(*bufio.Writer)
		bw.Reset(w)
		defer func() {
			bw.Reset(nil) // hold no response past its handler
			searchWriters.Put(bw)
		}()
		for i, sm := range results {
			if err := appendSensorMatches(bw, sm); err != nil {
				return err
			}
			// Flush every few lines so large transects stream instead of
			// buffering the whole response.
			if i%16 == 15 {
				if err := bw.Flush(); err != nil {
					return err
				}
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
			}
		}
		return bw.Flush()
	}
}

// handleSensors lists the collection's sensors.
func (s *Server) handleSensors(w http.ResponseWriter, _ *http.Request) error {
	names, err := s.col.Names()
	if err != nil {
		return err
	}
	return writeJSON(w, map[string][]string{"sensors": names})
}

// handleExplain is the EXPLAIN ANALYZE passthrough: it traces the
// feature-index reference plan of one sensor's search and returns the
// annotated plan as JSON.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) error {
	p, err := parseExplainParams(r.URL.Query(), s.maxSpan())
	if err != nil {
		return err
	}
	// Check membership before resolving so a typo'd sensor is a 404
	// instead of Sensor() creating an empty index for it.
	names, err := s.col.Names()
	if err != nil {
		return err
	}
	known := false
	for _, n := range names {
		if n == p.Sensor {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("%w %q", segdiff.ErrUnknownSensor, p.Sensor)
	}
	ix, err := s.col.Sensor(p.Sensor)
	if err != nil {
		return err
	}
	if err := r.Context().Err(); err != nil {
		return err
	}
	var tr segdiff.QueryTrace
	if p.Jump {
		tr, err = ix.ExplainJumps(p.Span, p.V)
	} else {
		tr, err = ix.ExplainDrops(p.Span, p.V)
	}
	if err != nil {
		return err
	}
	return writeJSON(w, tr)
}
