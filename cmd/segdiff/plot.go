package main

import (
	"flag"
	"fmt"
	"math"
	"strings"
	"time"

	"segdiff/internal/core"
	"segdiff/internal/segment"
)

// plotCmd renders the stored piecewise linear approximation as an ASCII
// chart with matched drop periods marked underneath — a terminal version
// of the paper's Figure 1 (data, segments, and a search result overlay).
func plotCmd(args []string) (err error) {
	fs := flag.NewFlagSet("plot", flag.ExitOnError)
	db := fs.String("db", "", "index directory")
	from := fs.Int64("from", 0, "start timestamp (0 = series start)")
	to := fs.Int64("to", 0, "end timestamp (0 = series end)")
	width := fs.Int("width", 100, "chart width in columns")
	height := fs.Int("height", 20, "chart height in rows")
	span := fs.Duration("span", time.Hour, "drop search span T")
	v := fs.Float64("v", -3, "drop search threshold V")
	fs.Parse(args)

	if *width < 10 || *height < 4 {
		return fmt.Errorf("chart too small (%dx%d)", *width, *height)
	}
	st, err := openStore(*db, 0, 0)
	if err != nil {
		return err
	}
	defer joinClose(&err, st)

	segs, err := st.Segments()
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return fmt.Errorf("index holds no data")
	}
	lo, hi := segs[0].Ts, segs[len(segs)-1].Te
	if *from != 0 {
		lo = *from
	}
	if *to != 0 {
		hi = *to
	}
	if hi <= lo {
		return fmt.Errorf("empty time range [%d, %d]", lo, hi)
	}

	matches, err := st.SearchDrops(int64(*span/time.Second), *v)
	if err != nil {
		return err
	}

	fmt.Print(renderChart(segs, matches, lo, hi, *width, *height))
	fmt.Printf("drop search: ≥%.1f within %v → %d periods total; ▓ marks matched periods in range\n",
		-*v, *span, len(matches))
	return nil
}

// renderChart draws the approximation over [lo, hi] in a width×height
// character grid plus a match gutter.
func renderChart(segs []segment.Segment, matches []core.Match, lo, hi int64, width, height int) string {
	// Sample the approximation at each column midpoint.
	vals := make([]float64, width)
	ok := make([]bool, width)
	vMin, vMax := math.Inf(1), math.Inf(-1)
	colTime := func(c int) int64 {
		return lo + int64(float64(c)/float64(width)*float64(hi-lo))
	}
	for c := 0; c < width; c++ {
		t := colTime(c)
		for _, g := range segs {
			if t >= g.Ts && t <= g.Te {
				vals[c] = g.Value(t)
				ok[c] = true
				break
			}
		}
		if ok[c] {
			vMin = math.Min(vMin, vals[c])
			vMax = math.Max(vMax, vals[c])
		}
	}
	if vMax <= vMin {
		vMax = vMin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	row := func(v float64) int {
		r := int((vMax - v) / (vMax - vMin) * float64(height-1))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	prev := -1
	for c := 0; c < width; c++ {
		if !ok[c] {
			prev = -1
			continue
		}
		r := row(vals[c])
		grid[r][c] = '*'
		// Connect vertically to the previous column for steep slopes.
		if prev >= 0 && r != prev {
			stepDown := 1
			if r < prev {
				stepDown = -1
			}
			for rr := prev + stepDown; rr != r; rr += stepDown {
				if grid[rr][c] == ' ' {
					grid[rr][c] = '|'
				}
			}
		}
		prev = r
	}

	gutter := []byte(strings.Repeat(" ", width))
	for _, m := range matches {
		if m.To.End < lo || m.From.Start > hi {
			continue
		}
		for c := 0; c < width; c++ {
			t := colTime(c)
			if t >= m.From.Start && t <= m.To.End {
				gutter[c] = '#'
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%8.2f ┤%s\n", vMax, string(grid[0]))
	for r := 1; r < height-1; r++ {
		fmt.Fprintf(&sb, "         │%s\n", string(grid[r]))
	}
	fmt.Fprintf(&sb, "%8.2f ┤%s\n", vMin, string(grid[height-1]))
	fmt.Fprintf(&sb, "   drops  %s\n", strings.ReplaceAll(string(gutter), "#", "▓"))
	fmt.Fprintf(&sb, "          t=%d%st=%d\n", lo, strings.Repeat(" ", max(1, width-len(fmt.Sprint(lo))-len(fmt.Sprint(hi))-4)), hi)
	return sb.String()
}
