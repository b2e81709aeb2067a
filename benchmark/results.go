package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// schemaVersion is bumped when the results file changes shape; -compare
// refuses files of another version.
const schemaVersion = 1

// results is what "go run ./benchmark -out FILE" writes: one set of runs
// of every workload, with what is needed to judge a later set against it.
type results struct {
	Schema    int                        `json:"schema"`
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Kernel     string `json:"kernel"`
	Filesystem string `json:"filesystem"` // of the data directory
	Seed       int64  `json:"seed"`       // of the first run; run i uses seed+i
	Seconds    int    `json:"seconds"`
	Runs       int    `json:"runs"`
}

type workloadResult struct {
	Seeds []int64 `json:"seeds"`
	// Fingerprints of the first run's inputs and outputs.
	CorpusSHA256 string                   `json:"corpus_sha256"`
	RowsMeasured int                      `json:"rows_measured"` // matches over the measured pass; 0 when timing decides it
	RowsSampled  int                      `json:"rows_sampled"`  // matches of the sampled queries on the drained store
	Attempted    int                      `json:"attempted"`
	Failed       int                      `json:"failed"`
	EndToEnd     map[string]*metricResult `json:"end_to_end"`
	PerLayer     map[string]*metricResult `json:"per_layer,omitempty"`
}

// metricResult is one metric over a set's runs.
type metricResult struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Values  []float64 `json:"values"`  // one per run
	Samples []int     `json:"samples"` // behind each value
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
}

func (m *metricResult) add(x measured) {
	m.Values = append(m.Values, x.Value)
	m.Samples = append(m.Samples, x.N)
	m.Median = median(m.Values)
	m.Q1, m.Q3 = m.Median, m.Median
	if len(m.Values) >= 2 {
		m.Q1, m.Q3 = quartiles(m.Values)
	}
}

// fold adds one run's metrics, given in table order, to a set.
func fold(into map[string]*metricResult, specs []metricSpec, vals []measured) {
	for i, s := range specs {
		m := into[s.Name]
		if m == nil {
			m = &metricResult{Unit: s.Unit, Better: s.Better, Bound: s.Bound}
			into[s.Name] = m
		}
		m.add(vals[i])
	}
}

func currentEnv(dataDir string, seed int64, seconds, runs int) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
		Kernel:     "unknown",
		Filesystem: filesystemOf(dataDir),
		Seed:       seed,
		Seconds:    seconds,
		Runs:       runs,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

// filesystemOf names the filesystem holding dir by its statfs magic.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x2FC12FC1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func writeResults(path string, res *results) error {
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res results
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("benchmark: %s: %w", path, err)
	}
	if res.Schema != schemaVersion {
		return nil, fmt.Errorf("benchmark: %s has schema %d, this build reads %d", path, res.Schema, schemaVersion)
	}
	return &res, nil
}
