package segdiff

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to a segdiffd server (cmd/segdiffd, internal/server).
// It mirrors the Collection API over HTTP: Append ingests batches,
// Drops/Jumps run the paper's (V, T) searches across sensors, Sensors
// lists them, and Explain fetches an EXPLAIN ANALYZE trace. All calls
// take a context; its deadline is also forwarded to the server as the
// request's query deadline, so client and server give up together.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for the server at baseURL (for example
// "http://127.0.0.1:8080"). httpClient may be nil for
// http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: httpClient}
}

// APIError is a non-2xx response from the server.
type APIError struct {
	StatusCode int
	Message    string // response body, trimmed
	RequestID  string // X-Request-Id echoed by the server, when present
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("segdiff: server returned %d (%s): %s", e.StatusCode, e.RequestID, e.Message)
	}
	return fmt.Sprintf("segdiff: server returned %d: %s", e.StatusCode, e.Message)
}

// do issues one request and returns the response, converting non-2xx
// statuses to *APIError. The caller closes the body on success.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, &APIError{
			StatusCode: resp.StatusCode,
			Message:    strings.TrimSpace(string(body)),
			RequestID:  resp.Header.Get("X-Request-Id"),
		}
	}
	return resp, nil
}

// queryURL builds base+path?q, forwarding the context deadline (if any)
// as the server-side timeout parameter.
func (c *Client) queryURL(ctx context.Context, path string, q url.Values) string {
	if dl, ok := ctx.Deadline(); ok {
		if left := time.Until(dl); left > 0 {
			q.Set("timeout", left.Round(time.Millisecond).String())
		}
	}
	u := c.base + path
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	return u
}

func formatV(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Append ingests batches via POST /v1/append and reports how many
// sensors and points the server accepted.
func (c *Client) Append(ctx context.Context, batches []SensorBatch) (sensors, points int, err error) {
	body, err := json.Marshal(batches)
	if err != nil {
		return 0, 0, err
	}
	u := c.queryURL(ctx, "/v1/append", url.Values{})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Sensors int `json:"sensors"`
		Points  int `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, 0, fmt.Errorf("segdiff: decoding append response: %w", err)
	}
	return out.Sensors, out.Points, nil
}

// Drops runs GET /v1/drops: every drop of at least |v| (v < 0) within
// span, across all sensors or just the named ones. The result is
// ordered by sensor name, one element per sensor, exactly as
// Collection.DropsContext returns it.
func (c *Client) Drops(ctx context.Context, span time.Duration, v float64, sensors ...string) ([]SensorMatches, error) {
	return c.search(ctx, "/v1/drops", span, v, sensors)
}

// Jumps is the symmetric search (v > 0) via GET /v1/jumps.
func (c *Client) Jumps(ctx context.Context, span time.Duration, v float64, sensors ...string) ([]SensorMatches, error) {
	return c.search(ctx, "/v1/jumps", span, v, sensors)
}

func (c *Client) search(ctx context.Context, path string, span time.Duration, v float64, sensors []string) ([]SensorMatches, error) {
	q := url.Values{}
	q.Set("span", span.String())
	q.Set("v", formatV(v))
	if len(sensors) > 0 {
		q.Set("sensors", strings.Join(sensors, ","))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.queryURL(ctx, path, q), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()

	// The response is NDJSON, one SensorMatches per line. One stream
	// decoder reads it value by value, so memory stays at one line
	// however long a sensor's line grows.
	results := []SensorMatches{}
	dec := json.NewDecoder(resp.Body)
	for {
		var sm SensorMatches
		if err := dec.Decode(&sm); err == io.EOF {
			return results, nil
		} else if err != nil {
			return nil, fmt.Errorf("segdiff: decoding %s line %d: %w", path, len(results)+1, err)
		}
		results = append(results, sm)
	}
}

// Sensors lists the collection's sensors via GET /v1/sensors.
func (c *Client) Sensors(ctx context.Context) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.queryURL(ctx, "/v1/sensors", url.Values{}), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Sensors []string `json:"sensors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("segdiff: decoding sensors response: %w", err)
	}
	return out.Sensors, nil
}

// Explain fetches an EXPLAIN ANALYZE trace of one sensor's search via
// GET /v1/explain: the feature-index reference plan (see
// Index.ExplainDrops), not the scan that serves Drops and Jumps. jump
// selects the search kind.
func (c *Client) Explain(ctx context.Context, sensor string, jump bool, span time.Duration, v float64) (QueryTrace, error) {
	q := url.Values{}
	q.Set("sensor", sensor)
	q.Set("span", span.String())
	q.Set("v", formatV(v))
	if jump {
		q.Set("kind", "jump")
	}
	var tr QueryTrace
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.queryURL(ctx, "/v1/explain", q), nil)
	if err != nil {
		return tr, err
	}
	resp, err := c.do(req)
	if err != nil {
		return tr, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return tr, fmt.Errorf("segdiff: decoding explain response: %w", err)
	}
	return tr, nil
}

// Health probes GET /healthz; nil means the server is up and not
// draining.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}
