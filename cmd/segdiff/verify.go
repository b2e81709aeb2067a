package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"segdiff/internal/naive"
	"segdiff/internal/timeseries"
)

// verifyCmd checks the Theorem 1 guarantees of an index against the
// series it was built from: (1) every true event among the CSV's sampled
// observations is covered by a returned period, and (2) every returned
// period contains an event within 2ε of the threshold (verified exactly
// under the linear-interpolation model). It is the paper's proof turned
// into an operational check.
//
// The CSV must be exactly what was ingested: if the index was built with
// -denoise, verify against the denoised data (the guarantees are relative
// to the signal the index saw, not to anomalies the preprocessing
// removed).
func verifyCmd(args []string) (err error) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	db := fs.String("db", "", "index directory")
	csvPath := fs.String("csv", "", "the raw CSV the index was built from")
	span := fs.Duration("span", time.Hour, "time span threshold T")
	v := fs.Float64("v", -3, "drop threshold V (negative)")
	fs.Parse(args)

	if *csvPath == "" {
		return fmt.Errorf("missing -csv")
	}
	f, err := os.Open(*csvPath)
	if err != nil {
		return err
	}
	defer joinClose(&err, f)
	series, err := timeseries.ReadCSV(f)
	if err != nil {
		return err
	}

	st, err := openStore(*db, 0, 0)
	if err != nil {
		return err
	}
	defer joinClose(&err, st)
	eps := st.Epsilon()
	T := int64(*span / time.Second)

	matches, err := st.SearchDrops(T, *v)
	if err != nil {
		return err
	}
	events, err := naive.Drops(series, T, *v)
	if err != nil {
		return err
	}

	// (1) No false negatives.
	misses := 0
	for _, e := range events {
		covered := false
		for _, m := range matches {
			if m.From.Contains(e.T1) && m.To.Contains(e.T2) {
				covered = true
				break
			}
		}
		if !covered {
			misses++
			if misses <= 5 {
				fmt.Printf("MISSED: true event (%d → %d, Δv=%.3f)\n", e.T1, e.T2, e.Dv)
			}
		}
	}

	// (2) False positives bounded by 2ε (plus slope slack for the
	// integer-grid verification).
	segs, err := st.Segments()
	if err != nil {
		return err
	}
	maxSlope := 0.0
	for _, g := range segs {
		if s := math.Abs(g.Slope()); s > maxSlope {
			maxSlope = s
		}
	}
	slack := 2*maxSlope + 1e-9
	loose := 0
	for _, m := range matches {
		lo := max64(m.From.Start, series.Start())
		hi := min64(m.To.End, series.End())
		if lo > hi {
			loose++
			continue
		}
		d, ok, err := naive.ExtremeChange(series,
			max64(m.From.Start, series.Start()), min64(m.From.End, series.End()),
			max64(m.To.Start, series.Start()), min64(m.To.End, series.End()), T, true)
		if err != nil || !ok || d > *v+2*eps+slack {
			loose++
			if loose <= 5 {
				fmt.Printf("LOOSE: match (%d,%d,%d,%d) best drop %.3f vs bound %.3f (ok=%v err=%v)\n",
					m.From.Start, m.From.End, m.To.Start, m.To.End, d, *v+2*eps, ok, err)
			}
		}
	}

	fmt.Printf("query: drop ≥ %.3g within %v, ε = %.3g\n", -*v, *span, eps)
	fmt.Printf("true events (sampled pairs): %d; matches returned: %d\n", len(events), len(matches))
	fmt.Printf("false negatives: %d (guarantee: 0)\n", misses)
	fmt.Printf("matches beyond the V+2ε tolerance: %d (guarantee: 0)\n", loose)
	if misses > 0 || loose > 0 {
		return fmt.Errorf("verification FAILED")
	}
	fmt.Println("verification PASSED: Theorem 1 holds on this data")
	return nil
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
