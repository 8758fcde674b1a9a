package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// backend is a serving stack a workload can be driven against end to end:
// the real aboramd process, or — in the self-tests, which must not build
// and spawn a daemon — the in-process stack.
type backend interface {
	// start boots the stack on the workload's data directory (recovering
	// whatever an earlier incarnation left there) and returns its address.
	start() (addr string, err error)
	// kill stops the stack without any orderly shutdown: SIGKILL for the
	// daemon, so nothing is flushed that the write path did not flush.
	kill()
	// wipe removes the data directory (between repeated set-ups).
	wipe() error
	cpuSeconds() float64 // user+sys CPU consumed so far
	peakRSSMB() float64
	diskBytes() int64 // bytes under the data directory
	log() string      // stderr/stdout of the last incarnation, kept for failures
}

// buildDaemon builds cmd/aboramd from the working tree into the scratch
// directory. The Go build cache makes every build after the first a
// sub-second staleness check.
func buildDaemon(root, scratch string) (string, error) {
	bin := filepath.Join(scratch, "aboramd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aboramd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/aboramd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemonArgs renders the workload's aboramd command line. The daemon gets
// -seed 1 always; ports are ephemeral, never the default 7314.
func daemonArgs(w workload, dataDir string) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-scheme", "AB",
		"-levels", strconv.Itoa(w.levels),
		"-seed", "1",
		"-queue", "256",
		"-batch", "16",
	}
	if w.durable {
		args = append(args, "-data-dir", dataDir, "-group-commit", "-delta-snapshots",
			"-snapshot-every", "1024", "-base-every", "8")
	}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	if w.xor {
		args = append(args, "-xor")
	}
	return args
}

// daemon is the real aboramd process.
type daemon struct {
	bin     string
	w       workload
	dataDir string

	mu   sync.Mutex
	cmd  *exec.Cmd
	out  bytes.Buffer // stdout+stderr of the current incarnation
	done chan struct{}
}

func newDaemon(bin string, w workload, dataDir string) *daemon {
	return &daemon{bin: bin, w: w, dataDir: dataDir}
}

func (d *daemon) start() (string, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return "", err
	}
	cmd := exec.Command(d.bin, daemonArgs(d.w, d.dataDir)...)
	cmd.Stdout = pw
	cmd.Stderr = pw
	// The daemon must never outlive the benchmark, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return "", err
	}
	pw.Close()
	d.mu.Lock()
	d.cmd = cmd
	d.out.Reset()
	d.done = make(chan struct{})
	done := d.done
	d.mu.Unlock()

	// One goroutine drains the daemon's output for its whole life; the
	// listen address is parsed out of the "serving ... on <addr>" banner.
	addrc := make(chan string, 1)
	go func() {
		defer close(done)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.out.WriteString(line)
			d.out.WriteByte('\n')
			d.mu.Unlock()
			if i := strings.LastIndex(line, ") on "); i >= 0 && strings.HasPrefix(line, "aboramd: serving ") {
				select {
				case addrc <- strings.TrimSpace(line[i+len(") on "):]):
				default:
				}
			}
		}
		cmd.Wait()
	}()
	select {
	case addr := <-addrc:
		return addr, nil
	case <-done:
		return "", fmt.Errorf("aboramd exited before serving:\n%s", d.log())
	case <-time.After(60 * time.Second):
		d.kill()
		return "", fmt.Errorf("aboramd did not start serving within 60s:\n%s", d.log())
	}
}

func (d *daemon) kill() {
	d.mu.Lock()
	cmd, done := d.cmd, d.done
	d.cmd = nil
	d.mu.Unlock()
	if cmd == nil {
		return
	}
	cmd.Process.Kill()
	<-done // output drained and the process reaped
}

func (d *daemon) wipe() error { return os.RemoveAll(d.dataDir) }

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.out.String()
}

func (d *daemon) pid() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cmd == nil {
		return 0
	}
	return d.cmd.Process.Pid
}

func (d *daemon) cpuSeconds() float64 { return procCPUSeconds(d.pid()) }
func (d *daemon) peakRSSMB() float64  { return procPeakRSSMB(d.pid()) }
func (d *daemon) diskBytes() int64    { return dirBytes(d.dataDir) }

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux the benchmark targets.
const clockTicks = 100

// procCPUSeconds reads user+sys CPU time of a process from /proc.
func procCPUSeconds(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

// procPeakRSSMB reads the resident-set high-water mark from /proc.
func procPeakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
