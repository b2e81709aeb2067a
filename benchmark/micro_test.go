package main

import (
	"path/filepath"
	"testing"

	"segdiff/internal/core"
)

// BenchmarkMicro exposes the micro rows of micro.go to
//
//	go test -run '^$' -bench . -benchmem ./benchmark
//
// on a store built from one sensor x 30 days of the default-seed corpus.
func BenchmarkMicro(b *testing.B) {
	c, err := generateCorpus(defaultSeed, 1, 30*24, 0)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	storeDir := filepath.Join(dir, "store")
	st, err := core.Open(storeDir, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.AppendSeries(c.series[0]); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	env := &microEnv{storeDir: storeDir, scratch: dir, series: c.series[0]}
	for _, row := range microRows {
		row := row
		b.Run(row.name, func(b *testing.B) { row.fn(env, b) })
	}
}
