package main

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"segdiff/internal/storage/pager"
)

// fileCounts is what one class of storage file (the WAL, or the table
// and index files) was asked to do. Index applies run on parallel
// workers, so the cells are atomics.
type fileCounts struct {
	writeBytes atomic.Int64
	syncs      atomic.Int64
	syncNS     atomic.Int64
}

// fileCounter is a sqlmini.Options.FileFactory that opens real OS files
// and counts the writes and fsyncs they receive, split into the
// write-ahead log and the data files. It measures the pager and wal
// layers at their boundary with the disk without touching either.
type fileCounter struct {
	wal, data fileCounts
}

func (fc *fileCounter) open(path string) (pager.File, error) {
	f, err := pager.OpenOSFile(path)
	if err != nil {
		return nil, err
	}
	c := &fc.data
	if strings.HasSuffix(filepath.Base(path), ".log") {
		c = &fc.wal
	}
	return &countedFile{File: f, c: c}, nil
}

type countedFile struct {
	pager.File
	c *fileCounts
}

func (f *countedFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.c.writeBytes.Add(int64(n))
	return n, err
}

func (f *countedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.c.syncNS.Add(time.Since(t0).Nanoseconds())
	f.c.syncs.Add(1)
	return err
}
