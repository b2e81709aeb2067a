// Package crashtest is the crash-safety verification harness: it drives a
// deterministic synth-series batched ingest against a store whose every
// backing file (heap tables, B+tree indexes, write-ahead log) routes
// through the fault-injection layer (internal/storage/faultfs via
// sqlmini.Options.FileFactory), power-cuts the "machine" at a chosen
// write-class operation, reboots from the durable disk image, finishes the
// ingest, and checks the paper's Theorem 1 guarantees against the naive
// oracle on the full original series:
//
//   - no false negatives: every true event of the sampled series is
//     covered by a returned period, no matter where the crash hit;
//   - bounded false positives: every returned period contains an event
//     within 2ε of the threshold (plus integer-grid slope slack).
//
// It also judges the served search against its reference: the drop
// search the store serves — a scan of the segment mirror derived from the
// recovered segs table at mount and extended by the resumed ingest — must
// return exactly what the feature-index union returns from the same store
// under a forced sequential scan. And it judges the zone maps that forced
// scan prunes with, which the engine derives from the recovered heap pages
// at mount: after recovery, and again after the resumed ingest, every page
// summary must cover the live rows of its page, and the pruned forced-scan
// search must return exactly what the forced-index search — which never
// consults zone maps — returns from the same disk image.
//
// The workload pins UnionWorkers and WriteWorkers to 1 so the engine's
// file-operation sequence is a pure function of the workload: crash point
// k in one run is crash point k in every run, and the recovered disk image
// is byte-identical across repetitions (see TestCrashDeterministicRecovery).
//
// A clean run counts the write-class operations of the whole ingest; the
// crash tests enumerate the fault-point space (setup excluded — a crash
// during initial schema creation just loses an empty store, which is not
// the recovery path under test). The survival policy and torn-write bit
// cycle deterministically with the crash point, so the enumeration covers
// the strict sync-barrier model, prefix-surviving OS write-back, lost
// fsync acknowledgements, and torn pages.
package crashtest

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"

	"segdiff/internal/core"
	"segdiff/internal/feature"
	"segdiff/internal/naive"
	"segdiff/internal/segment"
	"segdiff/internal/storage/faultfs"
	"segdiff/internal/storage/sqlmini"
	"segdiff/internal/synth"
	"segdiff/internal/timeseries"
)

// Workload is one deterministic ingest scenario: a seeded synthetic
// series appended in batches with a Sync after each, then finished.
type Workload struct {
	Seed    int64
	Series  *timeseries.Series
	Batches int     // number of Sync'd ingest batches
	T       int64   // drop-search span (seconds)
	V       float64 // drop-search threshold (negative)
}

// NewWorkload builds the scenario for a seed: half a day of 5-minute
// samples with frequent cold-air-drainage events so drop searches have
// real matches to find and real events to miss. The span and window are
// deliberately small — every crash point replays the whole ingest twice,
// so workload size multiplies directly into enumeration time.
func NewWorkload(seed int64) (*Workload, error) {
	series, _, err := synth.Generate(synth.Config{
		Seed:       seed,
		Duration:   43200,
		CADPerWeek: 42, // ~3 events per simulated half-day
	})
	if err != nil {
		return nil, err
	}
	return &Workload{Seed: seed, Series: series, Batches: 4, T: 3600, V: -3}, nil
}

// options wires a store to the fault registry. Single-threaded workers
// make the engine's file-operation order deterministic.
func (w *Workload) options(reg *faultfs.Registry) core.Options {
	return core.Options{
		// A 2 h window (vs the 8 h default) bounds how many prior segments
		// each new segment pairs with, keeping the feature volume — and the
		// per-trial cost — small without losing any crash-path coverage.
		Window: 7200,
		DB: sqlmini.Options{
			FileFactory:  reg.Open,
			UnionWorkers: 1,
			WriteWorkers: 1,
		},
	}
}

// appendBatches appends every series point with timestamp strictly after
// `after` in w.Batches equal batches, syncing after each. It does not
// Finish.
func (w *Workload) appendBatches(st *core.Store, after int64) error {
	pts := w.Series.Points()
	for len(pts) > 0 && pts[0].T <= after {
		pts = pts[1:]
	}
	if len(pts) == 0 {
		return nil
	}
	per := (len(pts) + w.Batches - 1) / w.Batches
	for len(pts) > 0 {
		n := per
		if n > len(pts) {
			n = len(pts)
		}
		for _, p := range pts[:n] {
			if err := st.Append(p); err != nil {
				return err
			}
		}
		if err := st.Sync(); err != nil {
			return err
		}
		pts = pts[n:]
	}
	return nil
}

// resume appends the not-yet-committed tail of the series to a reopened
// store and finishes it. The committed segment catalog partitions time up
// to its maximum end; a reopen behaves like a sensor gap there, so the
// feed resumes at the first point after it.
func (w *Workload) resume(st *core.Store) error {
	segs, err := st.Segments()
	if err != nil {
		return err
	}
	after := int64(-1)
	if w.Series.Len() > 0 {
		after = w.Series.Start() - 1
	}
	if len(segs) > 0 {
		after = segs[len(segs)-1].Te
	}
	if err := w.appendBatches(st, after); err != nil {
		return err
	}
	return st.Finish()
}

// CleanResult describes an uninterrupted run of the workload.
type CleanResult struct {
	// SetupOps is the write-class operation count consumed by schema
	// creation at open; FirstOp..TotalOps is the crash-point space.
	SetupOps int64
	// IngestOps is the count after the last batch Sync, before Finish;
	// transient-error tests stay at or below it (a fault during Finish
	// leaves the store read-only with the trailing segment lost, which
	// only a reopen — the crash path — can resume from).
	IngestOps int64
	// TotalOps is the count after Close (checkpoint included).
	TotalOps int64
	Matches  []core.Match
}

// FirstOp is the first enumerable crash point.
func (c *CleanResult) FirstOp() int64 { return c.SetupOps + 1 }

// CleanRun executes the workload without faults, verifies Theorem 1, and
// measures the fault-point space.
func (w *Workload) CleanRun(dir string) (*CleanResult, error) {
	reg := faultfs.New(w.Seed)
	st, err := core.Open(dir, w.options(reg))
	if err != nil {
		return nil, err
	}
	res := &CleanResult{SetupOps: reg.Ops()}
	if err := w.appendBatches(st, -1); err != nil {
		return nil, errors.Join(err, st.Close())
	}
	res.IngestOps = reg.Ops()
	if err := st.Finish(); err != nil {
		return nil, errors.Join(err, st.Close())
	}
	if res.Matches, err = w.verifyDrops(st); err != nil {
		return nil, errors.Join(err, st.Close())
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	res.TotalOps = reg.Ops()
	if n := reg.OpenHandles(); n != 0 {
		return nil, fmt.Errorf("crashtest: clean run leaked %d file handles", n)
	}
	if res.TotalOps <= res.SetupOps {
		return nil, fmt.Errorf("crashtest: empty fault-point space (setup %d, total %d)",
			res.SetupOps, res.TotalOps)
	}
	return res, nil
}

// ScriptFor is the deterministic fault flavor of crash point k: the
// survival policy and torn-write bit cycle with k so enumerating points
// also enumerates the crash model.
func ScriptFor(k int64) faultfs.Script {
	return faultfs.Script{
		FailOp:   k,
		Mode:     faultfs.Crash,
		Survival: faultfs.Survival(k % 3),
		Torn:     k%2 == 0,
	}
}

// CrashResult is the outcome of one crash-point trial.
type CrashResult struct {
	CrashErr error // injected failure surfaced by the engine
	// Recovered holds the drop matches the recovered store serves (the
	// scan), equal to its feature-index reference.
	Recovered []core.Match
	// ZoneSkipped counts the heap pages the recovered store's pruned
	// forced-scan search skipped: above zero somewhere in a matrix, or its
	// pruned-equals-forced-index check never exercised pruning.
	ZoneSkipped uint64
	// Disk is the durable image after the recovered store closed, keyed
	// by file base name — the determinism witness: equal crash points
	// must yield byte-identical Disk maps.
	Disk map[string][]byte
}

// CrashAt runs the workload in dir, power-cuts at write-class operation k,
// reboots from the durable snapshot (driving WAL replay and recovery),
// resumes and finishes the ingest, and verifies Theorem 1, the served scan
// against the feature-index reference, and the zone maps on the result.
func (w *Workload) CrashAt(dir string, k int64) (*CrashResult, error) {
	res := &CrashResult{}
	st2, boot, err := w.crashAndRecover(dir, k, res)
	if err != nil {
		return nil, err
	}
	fail := func(what string, err error) (*CrashResult, error) {
		return nil, errors.Join(fmt.Errorf("crashtest: %s after crash at op %d: %w", what, k, err), st2.Close())
	}
	if err := st2.DB().CheckZones(); err != nil {
		return fail("recovered zone maps", err)
	}
	if err := w.resume(st2); err != nil {
		return fail("resume", err)
	}
	if res.Recovered, err = w.verifyDrops(st2); err != nil {
		return fail("verify", err)
	}
	if err := st2.DB().CheckZones(); err != nil {
		return fail("resumed zone maps", err)
	}
	pruned, err := st2.SearchMode(feature.Drop, w.T, w.V, sqlmini.PlanForceScan)
	if err != nil {
		return fail("pruned scan", err)
	}
	if !slices.Equal(res.Recovered, pruned) {
		return fail("served search", fmt.Errorf("SCAN DIVERGENCE: the scan found %d matches %v, the forced-scan reference %d %v",
			len(res.Recovered), res.Recovered, len(pruned), pruned))
	}
	res.ZoneSkipped = st2.DB().ZoneSkippedPages()
	if err := st2.Close(); err != nil {
		return nil, fmt.Errorf("crashtest: recovered close after crash at op %d: %w", k, err)
	}
	if n := boot.OpenHandles(); n != 0 {
		return nil, fmt.Errorf("crashtest: recovery after crash at op %d leaked %d file handles", k, n)
	}
	res.Disk = baseNames(boot.Snapshot())
	if err := w.verifyUnpruned(dir, boot, pruned); err != nil {
		return nil, fmt.Errorf("crashtest: crash at op %d: %w", k, err)
	}
	return res, nil
}

// crashAndRecover runs the workload in dir up to the power cut at
// write-class operation k (recording the injected error in res) and
// reopens the store from the durable image on a fresh registry.
func (w *Workload) crashAndRecover(dir string, k int64, res *CrashResult) (*core.Store, *faultfs.Registry, error) {
	reg := faultfs.New(w.Seed)
	st, err := core.Open(dir, w.options(reg))
	if err != nil {
		return nil, nil, fmt.Errorf("crashtest: setup open: %w", err)
	}
	reg.SetScript(ScriptFor(k))

	res.CrashErr = w.runToCrash(st)
	if res.CrashErr == nil {
		return nil, nil, fmt.Errorf("crashtest: ingest survived scripted crash at op %d", k)
	}
	if !errors.Is(res.CrashErr, faultfs.ErrInjected) {
		return nil, nil, fmt.Errorf("crashtest: non-injected failure at op %d: %w", k, res.CrashErr)
	}
	if !reg.Crashed() {
		return nil, nil, fmt.Errorf("crashtest: op %d errored without power cut: %v", k, res.CrashErr)
	}
	// The process is dead: its store object and file handles are simply
	// abandoned, and recovery starts from the durable bytes alone.
	boot := faultfs.NewFromSnapshot(w.Seed, reg.Snapshot())
	st2, err := core.Open(dir, w.options(boot))
	if err != nil {
		return nil, nil, fmt.Errorf("crashtest: recovery open after crash at op %d: %w", k, err)
	}
	return st2, boot, nil
}

// verifyUnpruned reopens a copy of disk's durable image and checks that
// the forced-index drop search, which never consults zone maps, returns
// exactly pruned, the result the same image gave a pruned forced scan.
func (w *Workload) verifyUnpruned(dir string, disk *faultfs.Registry, pruned []core.Match) error {
	reg := faultfs.NewFromSnapshot(w.Seed, disk.Snapshot())
	st, err := core.Open(dir, w.options(reg))
	if err != nil {
		return err
	}
	plain, err := st.SearchMode(feature.Drop, w.T, w.V, sqlmini.PlanForceIndex)
	if err := errors.Join(err, st.Close()); err != nil {
		return err
	}
	if n := reg.OpenHandles(); n != 0 {
		return fmt.Errorf("forced-index reopen leaked %d file handles", n)
	}
	if !slices.Equal(pruned, plain) {
		return fmt.Errorf("ZONE MAP DIVERGENCE: pruned scan found %d matches %v, forced-index search %d %v", len(pruned), pruned, len(plain), plain)
	}
	return nil
}

// runToCrash drives the full workload expecting the scripted fault to
// interrupt it; the first error is returned as the crash error.
func (w *Workload) runToCrash(st *core.Store) error {
	if err := w.appendBatches(st, -1); err != nil {
		return err
	}
	if err := st.Finish(); err != nil {
		return err
	}
	return st.Close()
}

// verifyDrops searches the store and checks Theorem 1 against the naive
// oracle over the full original series.
func (w *Workload) verifyDrops(st *core.Store) ([]core.Match, error) {
	matches, err := st.SearchDrops(w.T, w.V)
	if err != nil {
		return nil, err
	}
	segs, err := st.Segments()
	if err != nil {
		return nil, err
	}
	periods := make([]Period, len(matches))
	for i, m := range matches {
		periods[i] = Period{TD: m.From.Start, TC: m.From.End, TB: m.To.Start, TA: m.To.End}
	}
	if err := VerifyTheorem1(w.Series, feature.Drop, w.T, w.V, periods, MaxSlope(segs), st.Epsilon()); err != nil {
		return nil, err
	}
	return matches, nil
}

// baseNames rekeys a disk snapshot by file base name so images taken in
// different temporary directories compare equal.
func baseNames(snap map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(snap))
	for path, data := range snap {
		out[filepath.Base(path)] = data
	}
	return out
}

// Period is a returned search period ((t_D, t_C), (t_B, t_A)) in the
// verifier's own flat form.
type Period struct {
	TD, TC, TB, TA int64
}

// MaxSlope returns the largest absolute segment slope — the verifier's
// slack for checking the continuous-model bound on the integer grid.
func MaxSlope(segs []segment.Segment) float64 {
	m := 0.0
	for _, g := range segs {
		if s := abs(g.Slope()); s > m {
			m = s
		}
	}
	return m
}

// VerifyTheorem1 checks both halves of the paper's Theorem 1 for a drop
// (kind == feature.Drop, V < 0) or jump (feature.Jump, V > 0) search:
//
//  1. completeness — every naive-oracle event over the sampled series is
//     covered by some returned period;
//  2. precision — every returned period contains an event with change
//     beyond V ∓ 2ε (checked exactly on the linear-interpolation model,
//     with slope slack for the integer time grid).
func VerifyTheorem1(s *timeseries.Series, kind feature.Kind, T int64, V float64,
	periods []Period, maxSlope, eps float64) error {
	var events []naive.Event
	var err error
	if kind == feature.Drop {
		events, err = naive.Drops(s, T, V)
	} else {
		events, err = naive.Jumps(s, T, V)
	}
	if err != nil {
		return err
	}
	for _, e := range events {
		covered := false
		for _, m := range periods {
			if m.TD <= e.T1 && e.T1 <= m.TC && m.TB <= e.T2 && e.T2 <= m.TA {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("crashtest: FALSE NEGATIVE: true event (%d → %d, Δv=%.4f) not covered by any of %d periods",
				e.T1, e.T2, e.Dv, len(periods))
		}
	}
	slack := 2*maxSlope + 1e-9
	for _, m := range periods {
		lo, hi := max64(m.TD, s.Start()), min64(m.TA, s.End())
		if lo > hi {
			return fmt.Errorf("crashtest: period (%d,%d,%d,%d) lies outside the series", m.TD, m.TC, m.TB, m.TA)
		}
		d, ok, err := naive.ExtremeChange(s,
			max64(m.TD, s.Start()), min64(m.TC, s.End()),
			max64(m.TB, s.Start()), min64(m.TA, s.End()), T, kind == feature.Drop)
		if err != nil {
			return fmt.Errorf("crashtest: period (%d,%d,%d,%d): %w", m.TD, m.TC, m.TB, m.TA, err)
		}
		loose := !ok
		if kind == feature.Drop {
			loose = loose || d > V+2*eps+slack
		} else {
			loose = loose || d < V-2*eps-slack
		}
		if loose {
			return fmt.Errorf("crashtest: period (%d,%d,%d,%d) beyond the V+2ε tolerance: best change %.4f vs bound %.4f (ok=%v)",
				m.TD, m.TC, m.TB, m.TA, d, V+2*eps, ok)
		}
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
