package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"heax/internal/uintmod"
)

// hostInfo is the report's host block: what a reader needs to decide
// whether two result files are comparable at all.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	HasIFMA    bool   `json:"has_ifma"` // switches every NTT/dyadic kernel
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
}

func readHost(seed int64) hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		HasIFMA:    uintmod.HasIFMA(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// usage is a getrusage snapshot of this process.
type usage struct {
	user, sys float64 // CPU seconds
	maxRSSMB  float64 // high-water resident set (Linux reports KiB)
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{user: tv(ru.Utime), sys: tv(ru.Stime), maxRSSMB: float64(ru.Maxrss) / 1024}
}

func (u usage) cpu() float64 { return u.user + u.sys }

// cpuTicks is the machine's stolen and total CPU time so far, in clock
// ticks summed over the CPUs.
type cpuTicks struct{ steal, total float64 }

// readCPUTicks reads the first line of /proc/stat, whose eighth field
// is the time a virtual CPU was ready to run and the hypervisor ran
// something else. Zeros where the file is missing: nothing is stolen
// on a host that cannot say.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already inside user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTicks{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stolenSince returns the share of the machine's CPU time that was
// stolen between the earlier reading t0 and t.
func (t cpuTicks) stolenSince(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return (t.steal - t0.steal) / (t.total - t0.total)
}
