package main

import (
	"bufio"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo identifies where and on what a result was measured; the
// record around it carries the workload seed.
type hostInfo struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	Commit      string  `json:"commit"`
	OfferedRate float64 `json:"offered_rate_per_s,omitempty"`
}

func host() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Commit:     gitCommit(),
	}
}

// procField returns the value of the first "key: value" line of a /proc
// file whose key is key, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	fields := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(fields) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout without .git (an exported tree) reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// cpuTicks are the host's aggregate CPU counters from /proc/stat.
type cpuTicks struct{ total, steal int64 }

func hostCPU() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
