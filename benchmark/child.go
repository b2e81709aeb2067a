package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"segdiff"
	"segdiff/internal/obs"
)

// buildDir is where the benchmark keeps everything it writes — the
// segdiffd binary and each run's data directory — relative to the module
// root, so a run never touches anything outside its checkout.
const buildDir = ".bench_build"

// moduleRoot walks up from the working directory to the directory
// holding go.mod ("go run ./benchmark" starts at the root, "go test"
// inside benchmark/).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/segdiffd from the checkout's own source and
// returns the binary's path. The go build cache makes every call after
// the first a sub-second no-op.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "segdiffd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/segdiffd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("benchmark: go build ./cmd/segdiffd: %w\n%s", err, out)
	}
	return bin, nil
}

// child is one running segdiffd process serving a collection directory.
type child struct {
	cmd  *exec.Cmd
	url  string
	logs *syncBuffer
	done chan struct{} // closed when the stderr reader has seen EOF
}

// syncBuffer collects the child's log for error reports.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) add(line string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b.WriteString(line)
	s.b.WriteByte('\n')
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startChild launches segdiffd on dir with its default configuration
// (default GOMAXPROCS, default pools, real files, real fsync), on a
// loopback port the kernel picks, and returns once /healthz answers.
func startChild(ctx context.Context, bin, dir string) (*child, error) {
	cmd := exec.Command(bin, "-db", dir, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, logs: &syncBuffer{}, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.logs.add(line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	fail := func(err error) (*child, error) {
		_ = cmd.Process.Kill()
		<-c.done
		_ = cmd.Wait()
		return nil, fmt.Errorf("%w\nsegdiffd log:\n%s", err, c.logs)
	}
	select {
	case a := <-addr:
		if _, _, err := net.SplitHostPort(a); err != nil {
			return fail(fmt.Errorf("benchmark: segdiffd reported address %q: %w", a, err))
		}
		c.url = "http://" + a
	case <-c.done:
		return fail(errors.New("benchmark: segdiffd exited before listening"))
	case <-time.After(20 * time.Second):
		return fail(errors.New("benchmark: segdiffd did not report a listening address in 20s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	cl := segdiff.NewClient(c.url, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := cl.Health(ctx); err == nil {
			return c, nil
		} else if time.Now().After(deadline) {
			return fail(fmt.Errorf("benchmark: segdiffd never became healthy: %w", err))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// drain sends SIGTERM and waits for the graceful-shutdown sequence
// (finish in-flight, checkpoint, close) to end. A non-zero exit is an
// error: the collection may not be checkpointed.
func (c *child) drain() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	<-c.done
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("benchmark: segdiffd drain: %w\nsegdiffd log:\n%s", err, c.logs)
	}
	return nil
}

// kill stops the child without ceremony; used on error paths so no
// process outlives the benchmark.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
	_ = c.cmd.Wait()
}

// procSample is what /proc says about the child at one instant.
type procSample struct {
	cpu        time.Duration // utime + stime
	writeBytes int64         // bytes the process caused to be sent to storage
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes
// it at 100 for userspace on every architecture Go supports.
const clockTick = 10 * time.Millisecond

func (c *child) sample() (procSample, error) {
	var s procSample
	pid := strconv.Itoa(c.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return s, err
	}
	// The command name may hold spaces; fields are counted after ") ".
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return s, fmt.Errorf("benchmark: short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return s, err
	}
	s.cpu = time.Duration(utime+stime) * clockTick

	io, err := os.ReadFile(filepath.Join("/proc", pid, "io"))
	if err != nil {
		return s, err
	}
	s.writeBytes, err = procField(io, "write_bytes:")
	return s, err
}

// rssPeakMiB is VmHWM, the child's resident-set high-water mark.
func (c *child) rssPeakMiB() (float64, error) {
	status, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	kb, err := procField(status, "VmHWM:")
	return float64(kb) / 1024, err
}

// openFDs counts the child's open descriptors.
func (c *child) openFDs() (int, error) {
	ents, err := os.ReadDir(filepath.Join("/proc", strconv.Itoa(c.cmd.Process.Pid), "fd"))
	return len(ents), err
}

// procField finds "key value ..." in a /proc text file.
func procField(data []byte, key string) (int64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("benchmark: no %q in /proc file", key)
}

// serverMetrics fetches the child's /metrics registry snapshot.
func (c *child) serverMetrics(ctx context.Context) (obs.Snapshot, error) {
	var snap obs.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/metrics", nil)
	if err != nil {
		return snap, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return snap, err
	}
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("benchmark: /metrics returned %d", resp.StatusCode)
	}
	return snap, json.Unmarshal(body, &snap)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
