package segdiff

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Collection manages one Index per sensor, like the 25-sensor Cold Air
// Drainage transect of the paper. Searches fan out across sensors on a
// bounded worker pool (GOMAXPROCS workers); per-sensor results always
// come back in sensor-name order regardless of completion order.
type Collection struct {
	mu      sync.Mutex
	dir     string // "" = in-memory; set once at open
	opts    Options
	sensors map[string]*Index // guarded by mu
	closed  bool              // guarded by mu
}

var sensorNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// OpenCollection opens (creating if needed) a directory of per-sensor
// indexes. Existing sensors are discovered and opened lazily.
func OpenCollection(dir string, opts Options) (*Collection, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segdiff: create collection dir: %w", err)
	}
	return &Collection{dir: dir, opts: opts, sensors: map[string]*Index{}}, nil
}

// NewMemoryCollection returns an in-memory collection.
func NewMemoryCollection(opts Options) *Collection {
	return &Collection{opts: opts, sensors: map[string]*Index{}}
}

// Sensor returns (opening or creating) the index for the named sensor.
func (c *Collection) Sensor(name string) (*Index, error) {
	if !sensorNameRE.MatchString(name) {
		return nil, fmt.Errorf("segdiff: invalid sensor name %q", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("segdiff: collection is closed")
	}
	if ix, ok := c.sensors[name]; ok {
		return ix, nil
	}
	var ix *Index
	var err error
	if c.dir == "" {
		ix, err = NewMemory(c.opts)
	} else {
		ix, err = Open(filepath.Join(c.dir, name), c.opts)
	}
	if err != nil {
		return nil, err
	}
	c.sensors[name] = ix
	return ix, nil
}

// Names lists all sensors: the opened ones plus, for on-disk collections,
// any subdirectory holding an index not yet opened.
func (c *Collection) Names() ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := map[string]bool{}
	for name := range c.sensors {
		set[name] = true
	}
	if c.dir != "" {
		entries, err := os.ReadDir(c.dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() && sensorNameRE.MatchString(e.Name()) {
				set[e.Name()] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Options returns the options the collection was opened with (defaults
// not yet resolved — a zero Epsilon or Window means the engine default).
// Servers use it to validate request parameters before touching the
// engine.
func (c *Collection) Options() Options { return c.opts }

// ValidSensorName reports whether name is acceptable as a sensor name.
func ValidSensorName(name string) bool { return sensorNameRE.MatchString(name) }

// SensorBatch is one sensor's share of a multi-sensor ingest batch.
type SensorBatch struct {
	Sensor string  `json:"sensor"`
	Points []Point `json:"points"`
}

// AppendAll ingests batches for many sensors concurrently: each sensor's
// points are appended and committed by one worker (per-sensor order is
// preserved; batches naming the same sensor are concatenated in input
// order), with at most GOMAXPROCS sensors in flight. Within each sensor
// the full batched write path applies — buffered rows, sorted per-index
// runs, one group commit — so a transect of sensors ingests with one
// fsync per sensor. The first error aborts that sensor's batch and is
// returned; other sensors' batches are unaffected and commit normally.
func (c *Collection) AppendAll(batches []SensorBatch) error {
	// Group by sensor, preserving first-appearance order.
	order := make([]string, 0, len(batches))
	grouped := map[string][]Point{}
	for _, b := range batches {
		if _, ok := grouped[b.Sensor]; !ok {
			order = append(order, b.Sensor)
		}
		grouped[b.Sensor] = append(grouped[b.Sensor], b.Points...)
	}
	workers := min(runtime.GOMAXPROCS(0), len(order))
	if workers <= 0 {
		return nil
	}

	errs := make([]error, len(order))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				name := order[i]
				ix, err := c.Sensor(name)
				if err != nil {
					errs[i] = err
					continue
				}
				if err := ix.AppendPoints(grouped[name]); err != nil {
					errs[i] = fmt.Errorf("segdiff: sensor %s: %w", name, err)
				}
			}
		}()
	}
	for i := range order {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SensorMatches pairs a sensor name with its matches.
type SensorMatches struct {
	Sensor  string  `json:"sensor"`
	Matches []Match `json:"matches"`
}

// ErrUnknownSensor is wrapped by searches whose sensor filter names a
// sensor the collection does not hold.
var ErrUnknownSensor = errors.New("segdiff: unknown sensor")

// Drops searches every sensor concurrently for drops of at least |v|
// within span, returning per-sensor results sorted by sensor name.
func (c *Collection) Drops(span time.Duration, v float64) ([]SensorMatches, error) {
	return c.DropsContext(context.Background(), span, v)
}

// Jumps is the symmetric multi-sensor jump search.
func (c *Collection) Jumps(span time.Duration, v float64) ([]SensorMatches, error) {
	return c.JumpsContext(context.Background(), span, v)
}

// DropsContext searches the named sensors — every sensor when none are
// given — under a request context. The context is consulted before each
// sensor's search is dispatched and every 1024 segments of each sensor's
// scan, so an expired deadline aborts the fanout promptly with an
// error wrapping ctx.Err(). A filter naming a sensor the collection
// does not hold fails with ErrUnknownSensor.
func (c *Collection) DropsContext(ctx context.Context, span time.Duration, v float64, sensors ...string) ([]SensorMatches, error) {
	return c.fanout(ctx, sensors, func(ctx context.Context, ix *Index) ([]Match, error) {
		return ix.DropsContext(ctx, span, v)
	})
}

// JumpsContext is the context-aware, sensor-filtered multi-sensor jump
// search; see DropsContext.
func (c *Collection) JumpsContext(ctx context.Context, span time.Duration, v float64, sensors ...string) ([]SensorMatches, error) {
	return c.fanout(ctx, sensors, func(ctx context.Context, ix *Index) ([]Match, error) {
		return ix.JumpsContext(ctx, span, v)
	})
}

// searchNames resolves a sensor filter: nil/empty selects every sensor;
// otherwise each requested name must exist and the result is the sorted,
// deduplicated filter.
func (c *Collection) searchNames(filter []string) ([]string, error) {
	names, err := c.Names()
	if err != nil {
		return nil, err
	}
	if len(filter) == 0 {
		return names, nil
	}
	have := make(map[string]bool, len(names))
	for _, name := range names {
		have[name] = true
	}
	set := make(map[string]bool, len(filter))
	out := make([]string, 0, len(filter))
	for _, name := range filter {
		if !have[name] {
			return nil, fmt.Errorf("%w %q", ErrUnknownSensor, name)
		}
		if !set[name] {
			set[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// fanout runs search against the filtered sensors on a bounded worker
// pool (GOMAXPROCS workers) instead of one goroutine per sensor, so a
// thousand-sensor collection does not explode into a thousand concurrent
// searches.
func (c *Collection) fanout(ctx context.Context, filter []string, search func(context.Context, *Index) ([]Match, error)) ([]SensorMatches, error) {
	names, err := c.searchNames(filter)
	if err != nil {
		return nil, err
	}
	workers := min(runtime.GOMAXPROCS(0), len(names))

	type job struct {
		i  int
		ix *Index
	}
	out := make([]SensorMatches, len(names))
	errs := make([]error, len(names))
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				// A sensor whose search has not started when the request
				// context dies is skipped instead of searched, so the
				// fanout drains quickly once the deadline passes.
				if err := ctx.Err(); err != nil {
					errs[j.i] = fmt.Errorf("segdiff: sensor %s: search canceled: %w", names[j.i], err)
					continue
				}
				ms, err := search(ctx, j.ix)
				out[j.i] = SensorMatches{Sensor: names[j.i], Matches: ms}
				errs[j.i] = err
			}
		}()
	}
	var openErr error
	for i, name := range names {
		ix, err := c.Sensor(name)
		if err != nil {
			openErr = err
			break
		}
		jobs <- job{i: i, ix: ix}
	}
	close(jobs)
	wg.Wait()
	if openErr != nil {
		return nil, openErr
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Finish flushes every opened sensor index.
func (c *Collection) Finish() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, ix := range c.sensors {
		if err := ix.Finish(); err != nil {
			return fmt.Errorf("segdiff: finish sensor %s: %w", name, err)
		}
	}
	return nil
}

// Close closes every opened sensor index.
func (c *Collection) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for name, ix := range c.sensors {
		if err := ix.Close(); err != nil {
			return fmt.Errorf("segdiff: close sensor %s: %w", name, err)
		}
	}
	return nil
}
