// Fixture for the latchorder analyzer: map-ordered durable writes,
// modelled on the engine's per-file pagers.
package latchorder

// Pager mirrors the engine's buffer pool; Sync is a flush primitive in
// walorder's table (latchorder shares those facts).
type Pager struct{}

func (pg *Pager) Sync() error  { return nil }
func (pg *Pager) Flush() error { return nil }

// badMapFlush syncs in map iteration order: nondeterministic on-disk
// write order across runs.
func badMapFlush(pool map[string]*Pager) error {
	for _, pg := range pool {
		if err := pg.Sync(); err != nil { // want `durable write ordered by map iteration`
			return err
		}
	}
	return nil
}

// checkpoint writes durably; callers inherit the WritesFile fact.
func checkpoint(pg *Pager) error { return pg.Sync() }

// badMapCheckpoint flushes through a callee inside map iteration.
func badMapCheckpoint(pool map[string]*Pager) error {
	for _, pg := range pool {
		if err := checkpoint(pg); err != nil { // want `durable write ordered by map iteration`
			return err
		}
	}
	return nil
}

// goodSortedFlush iterates a sorted slice of names — the engine's
// sortedTableNames convention.
func goodSortedFlush(pool map[string]*Pager, names []string) error {
	for _, name := range names {
		if err := pool[name].Sync(); err != nil {
			return err
		}
	}
	return nil
}

// goodMapRead: map iteration without durable writes is fine.
func goodMapRead(pool map[string]*Pager) int {
	n := 0
	for range pool {
		n++
	}
	return n
}

// suppressedMapFlush shows the escape hatch for single-file pools where
// iteration order cannot matter.
func suppressedMapFlush(pool map[string]*Pager) error {
	for _, pg := range pool {
		//segdifflint:ignore latchorder the pool holds at most one pager in this tool
		if err := pg.Flush(); err != nil {
			return err
		}
	}
	return nil
}
