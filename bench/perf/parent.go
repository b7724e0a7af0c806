package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is the machine and settings a ledger was measured under
// (the ddtxn bm.py rule: every knob in the row).
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Seed       uint64 `json:"seed"`
	Reps       int    `json:"reps"`
	Smoke      bool   `json:"smoke"`
}

// childProcs is the GOMAXPROCS every child runs under: what a user
// gets, capped at 4 so a ledger from a large machine stays comparable
// with one from a small one. An explicit GOMAXPROCS in the environment
// wins. GOGC is left alone and recorded.
func childProcs() int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	return min(runtime.NumCPU(), 4)
}

func currentEnvironment(seed uint64, smoke bool) environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: childProcs(), GOGC: gogc,
		GoVersion: runtime.Version(), CPUModel: cpuModel(), Kernel: kernelRelease(),
		Seed: seed, Smoke: smoke,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// The canary is a fixed piece of work, so its time measures the
// machine, not the program: canaryRounds round trips between two
// goroutines over unbuffered channels, about 150 ms on a quiet 2.1 GHz
// core. It is the simulator's own hot operation — Tasklet.yield hands
// off twice per simulated memory access — because that is what this
// kind of machine runs unevenly: for minutes at a time every workload
// here runs 20–35 % slower, and so does this loop, while a
// dependent-multiply hashing loop, the first canary tried, does not
// move at all (README, finding 5).
const canaryRounds = 450000

// canaryRefNs is the canary's round-trip time on the reference machine:
// the box the baseline was measured on, when quiet. Real-clock
// end-to-end values are reported in that machine's seconds.
const canaryRefNs = 330.0

// canary times the fixed handoff loop and returns milliseconds.
func canary(rounds int) float64 {
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		ping <- struct{}{}
		<-pong
	}
	ms := float64(time.Since(t0)) / 1e6
	close(ping)
	return ms
}

// runner spawns children of this binary, one at a time, with a canary
// before the first and after each.
type runner struct {
	exe          string
	outdir       string
	smoke        bool
	canaryRounds int
	canaries     []float64
}

func newRunner(outdir string, smoke bool) (*runner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return nil, err
	}
	r := &runner{exe: exe, outdir: outdir, smoke: smoke, canaryRounds: canaryRounds}
	if smoke {
		r.canaryRounds /= 20
	}
	return r, nil
}

func (r *runner) canary() {
	r.canaries = append(r.canaries, canary(r.canaryRounds))
}

// canaryWindow is how many canary samples on each side of a child are
// pooled into its machine speed: with the child's own two, six samples,
// which span about five repetitions. The slow phases last minutes; a
// single 150 ms sample also catches sub-second bursts that the child,
// twenty times longer, averages out.
const canaryWindow = 2

// speed is the machine's speed around the child whose before-canary is
// sample at, as a share of the reference machine's: the reference
// canary time over the median of the nearby samples. A real-clock time
// multiplied by it is what the reference machine would have taken.
func (r *runner) speed(at int) float64 {
	near := r.canaries[max(0, at-canaryWindow):min(len(r.canaries), at+2+canaryWindow)]
	_, median, _ := quartiles(near)
	return float64(r.canaryRounds) * canaryRefNs / 1e6 / median
}

// rep is one finished child: what it reported plus what the kernel
// accounted to the process.
type rep struct {
	childResult
	CPUSeconds float64 `json:"cpu_s"`
	PeakRSSMiB float64 `json:"peak_rss_mb"`
	// Speed is the machine's speed around this child (runner.speed),
	// filled in when the ledger is settled; canaryAt the index of the
	// canary sample taken just before it.
	Speed    float64 `json:"machine_speed"`
	canaryAt int
}

// spawn runs one child in a fresh process and waits for it. A fresh
// process per repetition is required, not a nicety: in one shared
// process sweep_cells took 12.3 s after scale_sampled had grown the
// heap, against 3.7–4.4 s alone. It also yields cpu_s and peak_rss_mb
// from the child's rusage.
func (r *runner) spawn(workload string, seed uint64, traced, ladder bool) (rep, error) {
	args := []string{"-child", workload, "-seed", strconv.FormatUint(seed, 10), "-outdir", r.outdir}
	if r.smoke {
		args = append(args, "-smoke")
	}
	if traced {
		args = append(args, "-trace", "1")
	} else {
		args = append(args, "-trace", "0")
	}
	if ladder {
		args = append(args, "-ladder")
	}
	cmd := exec.Command(r.exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if len(r.canaries) == 0 {
		r.canary()
	}
	out := rep{canaryAt: len(r.canaries) - 1}
	err := cmd.Run()
	r.canary()
	if err != nil {
		return out, fmt.Errorf("child %s: %w: %s", workload, err, strings.TrimSpace(stderr.String()))
	}
	if err := json.Unmarshal(stdout.Bytes(), &out.childResult); err != nil {
		return out, fmt.Errorf("child %s: bad result: %w", workload, err)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	out.CPUSeconds = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	out.PeakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return out, nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// childEnv marks a process as a benchmark child. The tests re-execute
// the test binary as the benchmark through it.
const childEnv = "PIMSTM_PERF_CHILD"
