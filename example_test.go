package segdiff_test

import (
	"fmt"
	"log"
	"time"

	"segdiff"
)

// ExampleIndex demonstrates the core workflow: ingest a series online,
// then ask where it dropped by at least 4 units within 30 minutes.
func ExampleIndex() {
	ix, err := segdiff.NewMemory(segdiff.Options{
		Epsilon: 0.1,
		Window:  2 * time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()

	// A flat signal with one sharp drop: 10 → 4 between t=3000 and t=4200.
	for i := 0; i < 40; i++ {
		t := int64(i) * 300
		v := 10.0
		switch {
		case t >= 3000 && t < 4200:
			v = 10 - 6*float64(t-3000)/1200
		case t >= 4200:
			v = 4
		}
		if err := ix.Append(t, v); err != nil {
			log.Fatal(err)
		}
	}
	if err := ix.Finish(); err != nil {
		log.Fatal(err)
	}

	matches, err := ix.Drops(30*time.Minute, -4)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range matches {
		fmt.Printf("drop starts in [%d,%d], ends in [%d,%d]\n",
			m.From.Start, m.From.End, m.To.Start, m.To.End)
	}
	// Every pair of periods bracketing a ≥4-unit fall is reported, in
	// order of where the drop ends, then of where it starts: the drop can
	// start on the flat prefix (its end is within T of the ramp) or on the
	// ramp itself, and end on the ramp or the flat suffix.

	// Output:
	// drop starts in [0,3000], ends in [3000,4200]
	// drop starts in [3000,4200], ends in [3000,4200]
	// drop starts in [0,3000], ends in [4200,11700]
	// drop starts in [3000,4200], ends in [4200,11700]
}
