package crashtest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"segdiff/internal/core"
	"segdiff/internal/feature"
	"segdiff/internal/naive"
	"segdiff/internal/storage/faultfs"
	"segdiff/internal/storage/sqlmini"
)

var matrixSeeds = []int64{1, 2, 3, 4, 5}

// crashPoints selects the crash points to enumerate for one seed. In
// -short mode every seed samples 25 evenly spaced points (125 distinct
// points across the matrix); the full mode additionally enumerates the
// entire fault-point space for the first two seeds.
func crashPoints(c *CleanResult, exhaustive bool) []int64 {
	first, last := c.FirstOp(), c.TotalOps
	if exhaustive {
		ks := make([]int64, 0, last-first+1)
		for k := first; k <= last; k++ {
			ks = append(ks, k)
		}
		return ks
	}
	const samples = 25
	n := last - first
	ks := make([]int64, 0, samples)
	prev := int64(-1)
	for i := int64(0); i < samples; i++ {
		k := first + i*n/(samples-1)
		if k != prev {
			ks = append(ks, k)
		}
		prev = k
	}
	return ks
}

// TestCrashMatrix is the exhaustive crash-point enumeration: every
// write-class operation (WriteAt, Sync, Truncate — across heap tables,
// B+tree indexes, and the WAL) of a batched synth-series ingest is a
// power-cut site; each trial reboots from the durable image, recovers
// through WAL replay, resumes the feed, and must satisfy Theorem 1 with
// zero false negatives and no file-handle leaks, with zone maps that
// cover every recovered page and prune without changing an answer.
func TestCrashMatrix(t *testing.T) {
	for i, seed := range matrixSeeds {
		exhaustive := !testing.Short() && i < 2
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			w, err := NewWorkload(seed)
			if err != nil {
				t.Fatal(err)
			}
			events, err := naive.Drops(w.Series, w.T, w.V)
			if err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatalf("seed %d: oracle found no true events; the no-false-negative check would be vacuous", seed)
			}
			clean, err := w.CleanRun(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			ks := crashPoints(clean, exhaustive)
			if len(ks) < 25 {
				t.Fatalf("fault-point space too small: %d points in [%d, %d]", len(ks), clean.FirstOp(), clean.TotalOps)
			}
			t.Logf("seed %d: %d true events, %d clean matches, crash points %d..%d, enumerating %d",
				seed, len(events), len(clean.Matches), clean.FirstOp(), clean.TotalOps, len(ks))
			var skipped uint64
			for _, k := range ks {
				res, err := w.CrashAt(t.TempDir(), k)
				if err != nil {
					t.Fatalf("crash point %d: %v", k, err)
				}
				skipped += res.ZoneSkipped
			}
			if skipped == 0 {
				t.Fatal("no recovered search skipped a page: the pruned-vs-forced-index check was vacuous")
			}
		})
		_ = i
	}
}

// TestCrashZoneVerifierFiresOnSeededBug tests the tester. Zone maps are
// derived from the recovered heap at mount, so no crash can make them
// wrong — which also means only a seeded bug can show that the matrix's
// verifier would notice if they were. Skipping the rebuild for one table
// after a recovery must fail the check, before and after the resumed
// ingest folds new rows into the half-empty summaries.
func TestCrashZoneVerifierFiresOnSeededBug(t *testing.T) {
	w, err := NewWorkload(2)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := w.CleanRun(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Crash inside the last batch's commit: three batches are durable.
	st, _, err := w.crashAndRecover(t.TempDir(), clean.IngestOps, &CrashResult{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.DB().CheckZones(); err != nil {
		t.Fatalf("verifier rejects a correct recovery: %v", err)
	}
	st.DB().SkipZoneRebuildForTest("segs")
	if err := st.DB().CheckZones(); err == nil {
		t.Fatal("verifier passed a table mounted without its zone maps")
	}
	if err := w.resume(st); err != nil {
		t.Fatal(err)
	}
	if err := st.DB().CheckZones(); err == nil {
		t.Fatal("verifier passed summaries that cover only the rows inserted since the mount")
	}
}

// TestCrashDeterministicRecovery pins the reproducibility contract: the
// same (seed, crash point) yields a byte-identical recovered disk image
// and identical search results on every run.
func TestCrashDeterministicRecovery(t *testing.T) {
	w, err := NewWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := w.CleanRun(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first, last := clean.FirstOp(), clean.TotalOps
	for _, k := range []int64{first, (first + last) / 2, last} {
		base := t.TempDir()
		dir := filepath.Join(base, "store")
		r1, err := w.CrashAt(dir, k)
		if err != nil {
			t.Fatalf("crash point %d, run 1: %v", k, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		r2, err := w.CrashAt(dir, k)
		if err != nil {
			t.Fatalf("crash point %d, run 2: %v", k, err)
		}
		if len(r1.Disk) != len(r2.Disk) {
			t.Fatalf("crash point %d: runs recovered different file sets (%d vs %d)", k, len(r1.Disk), len(r2.Disk))
		}
		for name, data := range r1.Disk {
			if !bytes.Equal(data, r2.Disk[name]) {
				t.Fatalf("crash point %d: file %s differs between identical runs", k, name)
			}
		}
		if len(r1.Recovered) != len(r2.Recovered) {
			t.Fatalf("crash point %d: match counts differ (%d vs %d)", k, len(r1.Recovered), len(r2.Recovered))
		}
		for i := range r1.Recovered {
			if r1.Recovered[i] != r2.Recovered[i] {
				t.Fatalf("crash point %d: match %d differs between identical runs", k, i)
			}
		}
	}
}

// TestCrashTransientWriteErrors injects error-once-then-recover faults
// (a failed write or fsync that does NOT kill the process) during the
// batched ingest: the store must roll back to its last committed state,
// accept the resumed feed in-process, still satisfy Theorem 1, and serve
// from its segment mirror exactly what the feature-index reference holds.
func TestCrashTransientWriteErrors(t *testing.T) {
	w, err := NewWorkload(2)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := w.CleanRun(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Stay within the batch-Sync phase: a fault during Finish leaves the
	// store read-only with its trailing segment lost, which only the
	// reboot path (TestCrashMatrix) can resume from.
	first, last := clean.FirstOp(), clean.IngestOps
	n := last - first
	for i := int64(0); i < 10; i++ {
		k := first + i*n/9
		dir := t.TempDir()
		reg := faultfs.New(w.Seed)
		st, err := core.Open(dir, w.options(reg))
		if err != nil {
			t.Fatalf("op %d: open: %v", k, err)
		}
		reg.SetScript(faultfs.Script{FailOp: k, Mode: faultfs.ErrOnce})
		ingestErr := w.appendBatches(st, -1)
		if ingestErr == nil {
			t.Fatalf("op %d: ingest survived scripted fault", k)
		}
		if !errors.Is(ingestErr, faultfs.ErrInjected) {
			t.Fatalf("op %d: non-injected failure: %v", k, ingestErr)
		}
		if reg.Crashed() {
			t.Fatalf("op %d: transient fault crashed the registry", k)
		}
		if err := st.Abort(); err != nil {
			t.Fatalf("op %d: abort after transient fault: %v", k, err)
		}
		if err := w.resume(st); err != nil {
			t.Fatalf("op %d: resume after transient fault: %v", k, err)
		}
		served, err := w.verifyDrops(st)
		if err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
		ref, err := st.SearchMode(feature.Drop, w.T, w.V, sqlmini.PlanForceIndex)
		if err != nil {
			t.Fatalf("op %d: reference search: %v", k, err)
		}
		if !slices.Equal(served, ref) {
			t.Fatalf("op %d: SCAN DIVERGENCE after a transient fault: the scan found %d matches, the forced-index reference %d", k, len(served), len(ref))
		}
		if err := st.Close(); err != nil {
			t.Fatalf("op %d: close: %v", k, err)
		}
		if h := reg.OpenHandles(); h != 0 {
			t.Fatalf("op %d: leaked %d file handles", k, h)
		}
		// The store must also be durably intact: reboot it and search.
		boot := faultfs.NewFromSnapshot(w.Seed, reg.Snapshot())
		st2, err := core.Open(dir, w.options(boot))
		if err != nil {
			t.Fatalf("op %d: reboot: %v", k, err)
		}
		if _, err := w.verifyDrops(st2); err != nil {
			t.Fatalf("op %d: after reboot: %v", k, err)
		}
		if err := st2.Close(); err != nil {
			t.Fatalf("op %d: reboot close: %v", k, err)
		}
	}
}

// TestCrashRecoveryReadFaultFailsLoudly checks that a transient read
// error during recovery is reported, never silently treated as a torn WAL
// tail (which would drop committed batches): the faulted open must fail
// with the injected error, and a clean reopen of the same disk image must
// succeed with full Theorem 1 guarantees.
func TestCrashRecoveryReadFaultFailsLoudly(t *testing.T) {
	w, err := NewWorkload(3)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := w.CleanRun(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Crash at the last batch commit so the durable WAL holds several
	// committed batches for recovery to read.
	k := clean.IngestOps
	dir := t.TempDir()
	reg := faultfs.New(w.Seed)
	st, err := core.Open(dir, w.options(reg))
	if err != nil {
		t.Fatal(err)
	}
	reg.SetScript(ScriptFor(k))
	if err := w.runToCrash(st); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("crash run: %v", err)
	}
	snap := reg.Snapshot()

	// Count the reads of a clean recovery open.
	probe := faultfs.NewFromSnapshot(w.Seed, snap)
	st2, err := core.Open(dir, w.options(probe))
	if err != nil {
		t.Fatalf("clean recovery open: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	reads := probe.Reads()
	if reads == 0 {
		t.Fatal("recovery open issued no reads; the fault has nowhere to land")
	}
	for _, r := range []int64{1, (reads + 1) / 2, reads} {
		boot := faultfs.NewFromSnapshot(w.Seed, snap)
		boot.SetScript(faultfs.Script{FailReadOp: r})
		st3, err := core.Open(dir, w.options(boot))
		if err == nil {
			// The read fault landed after recovery finished its reads for
			// this open (read counts differ run to run only if the engine
			// changes); a successful open must still verify.
			if _, verr := w.verifyDrops(st3); verr != nil {
				t.Fatalf("read fault %d: open succeeded but store is damaged: %v", r, verr)
			}
			if cerr := st3.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			continue
		}
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("read fault %d: open failed with a non-injected error: %v", r, err)
		}
		// Clean retry of the same disk image: nothing was lost.
		retry := faultfs.NewFromSnapshot(w.Seed, snap)
		st4, err := core.Open(dir, w.options(retry))
		if err != nil {
			t.Fatalf("read fault %d: clean reopen failed: %v", r, err)
		}
		if err := w.resume(st4); err != nil {
			t.Fatalf("read fault %d: resume: %v", r, err)
		}
		if _, err := w.verifyDrops(st4); err != nil {
			t.Fatalf("read fault %d: %v", r, err)
		}
		if err := st4.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
