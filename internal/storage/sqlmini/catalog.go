package sqlmini

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// tableSchema is the persistent description of a table.
type tableSchema struct {
	Name   string      `json:"name"`
	Cols   []ColumnDef `json:"cols"`
	FileID uint16      `json:"file_id"`
}

// colIndex returns the position of the named column, or -1.
func (t *tableSchema) colIndex(name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// indexSchema is the persistent description of a secondary index.
type indexSchema struct {
	Name   string   `json:"name"`
	Table  string   `json:"table"`
	Cols   []string `json:"cols"`
	FileID uint16   `json:"file_id"`
}

// catalog is the schema registry, persisted as JSON in on-disk databases
// by DDL only — never by a commit, whose cost must not grow with the
// store. Everything derivable from the data files is derived at mount
// instead: planner statistics (stats.go) and zone maps (zones.go). An old
// file's "stats" and "zones" keys are ignored.
type catalog struct {
	Tables     map[string]*tableSchema `json:"tables"`
	Indexes    map[string]*indexSchema `json:"indexes"`
	NextFileID uint16                  `json:"next_file_id"`
}

func newCatalog() *catalog {
	return &catalog{
		Tables:  map[string]*tableSchema{},
		Indexes: map[string]*indexSchema{},
	}
}

// indexesOn returns the indexes declared on the given table, in a
// deterministic order (by FileID, i.e. creation order).
func (c *catalog) indexesOn(table string) []*indexSchema {
	var out []*indexSchema
	for _, ix := range c.Indexes {
		if ix.Table == table {
			out = append(out, ix)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].FileID > out[j].FileID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

const catalogFile = "catalog.json"

// saveCatalog atomically (write + rename) replaces the catalog file (a
// no-op in memory mode).
//
// locks: db.mu
func (db *DB) saveCatalog() error {
	if db.dir == "" {
		return nil
	}
	data, err := json.Marshal(db.catalog)
	if err != nil {
		return fmt.Errorf("sqlmini: marshal catalog: %w", err)
	}
	tmp := filepath.Join(db.dir, catalogFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(db.dir, catalogFile)); err != nil {
		return err
	}
	db.catalogSaves.Add(1)
	db.catalogBytes.Add(uint64(len(data)))
	return nil
}

// loadCatalog reads the catalog JSON from dir; a missing file yields an
// empty catalog. The temporary file of an interrupted save is removed.
func loadCatalog(dir string) (*catalog, error) {
	if err := os.Remove(filepath.Join(dir, catalogFile+".tmp")); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	path := filepath.Join(dir, catalogFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return newCatalog(), nil
	}
	if err != nil {
		return nil, err
	}
	c := newCatalog()
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("sqlmini: corrupt catalog %s: %w", path, err)
	}
	return c, nil
}
